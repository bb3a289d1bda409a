/**
 * @file
 * Callback — the engine's move-only `void()` callable.
 *
 * Every scheduled event owns one. A closure of at most inlineBytes
 * (pointer-aligned, nothrow-movable) lives inside the Callback itself;
 * a larger one falls back to one heap allocation. That bound is the
 * point: a closure capturing a Cstruct (32 bytes) plus a pointer — the
 * bridge's per-port delivery, the stack's frame input — fits inline,
 * so flooding a frame to every port allocates nothing per port.
 * libstdc++'s std::function keeps only trivially copyable closures of
 * at most 16 bytes inline, which no such closure is.
 *
 * An empty std::function or a null function pointer converts to an
 * empty Callback, so `if (done)` keeps meaning "a completion was
 * given".
 */

#ifndef MIRAGE_SIM_CALLBACK_H
#define MIRAGE_SIM_CALLBACK_H

#include <cstddef>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace mirage::sim {

class Callback
{
  public:
    /** Closure bytes stored without a heap allocation. */
    static constexpr std::size_t inlineBytes = 40;

    Callback() noexcept = default;
    Callback(std::nullptr_t) noexcept {}

    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                          std::is_invocable_v<D &>>>
    Callback(F &&f) // implicit, so a lambda converts where one is taken
    {
        if constexpr (std::is_pointer_v<D> ||
                      std::is_same_v<D, std::function<void()>>) {
            if (!f)
                return; // empty stays empty
        }
        if constexpr (storedInline<D>()) {
            ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
            ops_ = &InlineOps<D>::ops;
        } else {
            D *heap = new D(std::forward<F>(f));
            ::new (static_cast<void *>(buf_)) D *(heap);
            ops_ = &HeapOps<D>::ops;
        }
    }

    Callback(Callback &&o) noexcept { take(o); }

    Callback &
    operator=(Callback &&o) noexcept
    {
        if (this != &o) {
            reset();
            take(o);
        }
        return *this;
    }

    Callback(const Callback &) = delete;
    Callback &operator=(const Callback &) = delete;

    ~Callback() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    /** Run the closure; the Callback must not be empty. */
    void operator()() { ops_->invoke(buf_); }

    /** Whether a closure of type @p F is stored without allocating. */
    template <typename F>
    static constexpr bool
    storedInline()
    {
        return sizeof(F) <= inlineBytes &&
               alignof(F) <= alignof(void *) &&
               std::is_nothrow_move_constructible_v<F>;
    }

  private:
    /**
     * Per-type operations. A null relocate means the stored bytes move
     * with memcpy (trivially copyable closures, and the heap case's
     * pointer); a null destroy means there is nothing to destroy.
     */
    struct Ops
    {
        void (*invoke)(void *self);
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *self) noexcept;
    };

    template <typename F>
    struct InlineOps
    {
        static void invoke(void *self) { (*static_cast<F *>(self))(); }
        static void
        relocate(void *dst, void *src) noexcept
        {
            F *s = static_cast<F *>(src);
            ::new (dst) F(std::move(*s));
            s->~F();
        }
        static void
        destroy(void *self) noexcept
        {
            static_cast<F *>(self)->~F();
        }

        static constexpr bool trivial = std::is_trivially_copyable_v<F>;
        static constexpr Ops ops{&invoke, trivial ? nullptr : &relocate,
                                 trivial ? nullptr : &destroy};
    };

    template <typename F>
    struct HeapOps
    {
        static F *
        get(void *self)
        {
            return *std::launder(static_cast<F **>(self));
        }
        static void invoke(void *self) { (*get(self))(); }
        static void destroy(void *self) noexcept { delete get(self); }

        static constexpr Ops ops{&invoke, nullptr, &destroy};
    };

    void
    take(Callback &o) noexcept
    {
        ops_ = o.ops_;
        if (!ops_)
            return;
        if (ops_->relocate)
            ops_->relocate(buf_, o.buf_);
        else
            std::memcpy(buf_, o.buf_, inlineBytes);
        o.ops_ = nullptr;
    }

    void
    reset() noexcept
    {
        if (ops_ && ops_->destroy)
            ops_->destroy(buf_);
        ops_ = nullptr;
    }

    alignas(void *) unsigned char buf_[inlineBytes];
    const Ops *ops_ = nullptr;
};

} // namespace mirage::sim

#endif // MIRAGE_SIM_CALLBACK_H
