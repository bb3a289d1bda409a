/**
 * @file
 * Cstruct — bounds-checked, endian-aware views over shared buffers.
 *
 * This is the C++ analogue of Mirage's `cstruct` syntax extension
 * (paper Fig 3): all wire-format parsing throughout the network,
 * storage and protocol stacks goes through these accessors, so no
 * protocol code ever touches raw memory. Views are cheap value types
 * that alias the underlying Buffer; `sub`/`shift` slice without copying
 * (§3.4.1), which is the basis of the zero-copy I/O path. A Cstruct
 * shares ownership of its buffer; a CstructView borrows it (no
 * reference count) and has the same checked fixed-layout accessors.
 */

#ifndef MIRAGE_BASE_CSTRUCT_H
#define MIRAGE_BASE_CSTRUCT_H

#include <memory>
#include <string>

#include "base/bytes.h"
#include "base/endian.h"
#include "base/result.h"
#include "base/types.h"

namespace mirage {

/** The panic behind every failed fixed-layout bounds check. */
[[noreturn]] void rangePanic(std::size_t off, std::size_t n,
                             std::size_t len);

/**
 * The fixed-layout accessors every checked view shares, and their one
 * bounds check. @p View supplies length() and a private bytes() (its
 * first byte), and befriends this base. Inline: ring indices and
 * header fields are read on every event, so the check stays but the
 * call does not.
 */
template <typename View>
class FixedLayout
{
  public:
    /** @{ Fixed-layout accessors; panic on out-of-range (library bug). */
    u8 getU8(std::size_t off) const { return *at(off, 1); }
    u16 getBe16(std::size_t off) const { return loadBe16(at(off, 2)); }
    u32 getBe32(std::size_t off) const { return loadBe32(at(off, 4)); }
    u64 getBe64(std::size_t off) const { return loadBe64(at(off, 8)); }
    u16 getLe16(std::size_t off) const { return loadLe16(at(off, 2)); }
    u32 getLe32(std::size_t off) const { return loadLe32(at(off, 4)); }
    u64 getLe64(std::size_t off) const { return loadLe64(at(off, 8)); }
    void setU8(std::size_t off, u8 v) { *at(off, 1) = v; }
    void setBe16(std::size_t off, u16 v) { storeBe16(at(off, 2), v); }
    void setBe32(std::size_t off, u32 v) { storeBe32(at(off, 4), v); }
    void setBe64(std::size_t off, u64 v) { storeBe64(at(off, 8), v); }
    void setLe16(std::size_t off, u16 v) { storeLe16(at(off, 2), v); }
    void setLe32(std::size_t off, u32 v) { storeLe32(at(off, 4), v); }
    void setLe64(std::size_t off, u64 v) { storeLe64(at(off, 8), v); }
    /** @} */

  protected:
    void
    checkRange(std::size_t off, std::size_t n) const
    {
        if (off + n > self().length()) [[unlikely]]
            rangePanic(off, n, self().length());
    }

    /** The checked address of [off, off+n) for a fixed-layout access. */
    u8 *
    at(std::size_t off, std::size_t n) const
    {
        checkRange(off, n);
        return self().bytes() + off;
    }

  private:
    const View &self() const { return static_cast<const View &>(*this); }
};

class CstructView;

/**
 * A view of [offset, offset+length) within a shared Buffer.
 *
 * All accessors are bounds-checked; violations return an Error (parsers)
 * or panic (fixed-layout accessors, where an overrun is a library bug).
 */
class Cstruct : public FixedLayout<Cstruct>
{
  public:
    /** The empty view. */
    Cstruct() : off_(0), len_(0) {}

    /** View over an entire buffer. */
    explicit Cstruct(std::shared_ptr<Buffer> buf);

    /** View over a slice of a buffer; panics when out of range. */
    Cstruct(std::shared_ptr<Buffer> buf, std::size_t off, std::size_t len);

    /** Allocate a fresh zeroed buffer of @p len bytes and view it. */
    static Cstruct create(std::size_t len);

    /** Copy a string into a fresh buffer (counts as one copy). */
    static Cstruct ofString(const std::string &s);

    std::size_t length() const { return len_; }
    bool empty() const { return len_ == 0; }

    /** Sub-view [off, off+len) of this view; panics when out of range. */
    Cstruct sub(std::size_t off, std::size_t len) const;

    /** Drop the first @p n bytes; panics when n > length. */
    Cstruct shift(std::size_t n) const;

    /** Checked variant of sub for parser use. */
    Result<Cstruct> trySub(std::size_t off, std::size_t len) const;

    /**
     * Borrowed view of [off, off+len), checked once here and on every
     * access; panics when out of range. It holds no reference: the
     * caller keeps this Cstruct's buffer alive while the view is used.
     */
    CstructView view(std::size_t off, std::size_t len) const;

    /** @{ Checked accessors for parsing untrusted input. */
    Result<u8> tryGetU8(std::size_t off) const;
    Result<u16> tryGetBe16(std::size_t off) const;
    Result<u32> tryGetBe32(std::size_t off) const;
    /** @} */

    /**
     * Copy @p len bytes from @p src at @p src_off into this view at
     * @p dst_off. The only sanctioned copy primitive — it feeds the
     * global copy counters so zero-copy tests can assert a path never
     * copies payload bytes.
     */
    void blitFrom(const Cstruct &src, std::size_t src_off,
                  std::size_t dst_off, std::size_t len);

    /** Fill the whole view with @p value. */
    void fill(u8 value);

    /** Copy out as a std::string (counts as a copy). */
    std::string toString() const;

    /** Byte-wise equality of contents. */
    bool contentEquals(const Cstruct &other) const;

    /** Raw pointer to the first byte. Driver-level code only. */
    u8 *data();
    const u8 *data() const;

    /** The underlying buffer (for page-identity checks in tests). */
    const std::shared_ptr<Buffer> &buffer() const { return buf_; }

    /**
     * This view's offset within the underlying Buffer. Wire protocols
     * that grant a whole buffer once (persistent grants) send this so
     * the peer can locate a sub-view inside its long-lived mapping.
     */
    std::size_t bufferOffset() const { return off_; }

  private:
    friend class FixedLayout<Cstruct>;

    /** First byte; only reached through a checked access (len_ > 0). */
    u8 *bytes() const { return buf_->data() + off_; }

    std::shared_ptr<Buffer> buf_;
    std::size_t off_;
    std::size_t len_;
};

/**
 * A borrowed, bounds-checked view: a pointer and a length, with
 * Cstruct's fixed-layout accessors and no reference to the buffer.
 * Made only by Cstruct::view(), so its range was checked against a
 * live buffer; whoever made it keeps that buffer alive. Shared-ring
 * slots are handed out this way — the ring's page outlives every slot
 * access, so a slot costs no reference-count traffic (§3.4).
 */
class CstructView : public FixedLayout<CstructView>
{
  public:
    std::size_t length() const { return len_; }
    const u8 *data() const { return p_; }

  private:
    friend class Cstruct;
    friend class FixedLayout<CstructView>;

    CstructView(u8 *p, std::size_t len) : p_(p), len_(len) {}

    u8 *bytes() const { return p_; }

    u8 *p_;
    std::size_t len_;
};

inline CstructView
Cstruct::view(std::size_t off, std::size_t len) const
{
    checkRange(off, len);
    return CstructView(buf_ ? bytes() + off : nullptr, len);
}

} // namespace mirage

#endif // MIRAGE_BASE_CSTRUCT_H
