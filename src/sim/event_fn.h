// A move-only callable with inline storage for the event-kernel hot path.
//
// Every scheduled event used to carry a std::function<void()>, whose capture
// block lands on the heap as soon as it outgrows the library's small-buffer
// optimisation (16 bytes on common implementations — barely a `this` pointer
// plus one word). Simulation workloads schedule millions of events whose
// captures are small but not *that* small, so the kernel paid one or two
// allocations per event. EventFn widens the inline buffer to cover every
// callback the simulator actually schedules; only outsized captures (rare,
// cold paths) fall back to the heap, and the slot pool in EventQueue reuses
// the storage across events, making steady-state dispatch allocation-free.

#ifndef TCSIM_SRC_SIM_EVENT_FN_H_
#define TCSIM_SRC_SIM_EVENT_FN_H_

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace tcsim {

class EventFn {
 public:
  // Inline capture budget. Covers `this` plus a handful of captured words —
  // every hot-path callback in the tree — and a whole std::function (32
  // bytes) when one is forwarded from a stored callback.
  static constexpr size_t kInlineSize = 48;

  EventFn() = default;
  EventFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  // Wraps any void() callable. An empty std::function wraps to an empty
  // EventFn so `if (fn)` keeps meaning "there is something to run".
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (std::is_same_v<std::decay_t<F>, std::function<void()>>) {
      if (!f) {
        return;
      }
    }
    Assign(std::forward<F>(f));
  }

  EventFn(EventFn&& other) noexcept { MoveFrom(std::move(other)); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(std::move(other));
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { Reset(); }

  void operator()() { ops_->invoke(obj_); }

  explicit operator bool() const { return ops_ != nullptr; }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(obj_);
      ops_ = nullptr;
      obj_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Moves the callable from `src` into `dst_storage` (inline case only) and
    // destroys the source. Null for heap-allocated callables, whose pointer
    // is stolen instead.
    void (*relocate)(void* dst_storage, void* src);
    void (*destroy)(void*);
  };

  template <typename F>
  static const Ops* InlineOps() {
    static constexpr Ops ops = {
        [](void* p) { (*static_cast<F*>(p))(); },
        [](void* dst, void* src) {
          F* from = static_cast<F*>(src);
          ::new (dst) F(std::move(*from));
          from->~F();
        },
        [](void* p) { static_cast<F*>(p)->~F(); },
    };
    return &ops;
  }

  template <typename F>
  static const Ops* HeapOps() {
    static constexpr Ops ops = {
        [](void* p) { (*static_cast<F*>(p))(); },
        nullptr,
        [](void* p) { delete static_cast<F*>(p); },
    };
    return &ops;
  }

  template <typename F>
  void Assign(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      obj_ = ::new (&storage_) Fn(std::forward<F>(f));
      ops_ = InlineOps<Fn>();
    } else {
      obj_ = new Fn(std::forward<F>(f));
      ops_ = HeapOps<Fn>();
    }
  }

  void MoveFrom(EventFn&& other) {
    if (other.ops_ == nullptr) {
      return;
    }
    ops_ = other.ops_;
    if (other.obj_ == &other.storage_) {
      obj_ = &storage_;
      ops_->relocate(&storage_, other.obj_);
    } else {
      obj_ = other.obj_;  // steal the heap allocation
    }
    other.ops_ = nullptr;
    other.obj_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  void* obj_ = nullptr;
  const Ops* ops_ = nullptr;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_SIM_EVENT_FN_H_
