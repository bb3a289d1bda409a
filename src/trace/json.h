/**
 * @file
 * JsonWriter — the one place in src/ that knows JSON syntax.
 *
 * Every document the observability layer serves or writes (`/fleet`,
 * `/top`, `/flows`, Chrome traces, the wall profiler's sections, bench
 * rows) and every trace-event `args` object is built through this
 * streaming writer, so quoting, escaping and separators live in one
 * module, and a name carrying a quote or a backslash cannot break a
 * document.
 *
 * The writer places commas itself: open an object or array, write
 * key + value pairs or bare values, close it. newline() owes a line
 * break before the next element or closing bracket (after the comma
 * that precedes it), which keeps the line layout the documents have
 * always had.
 *
 *   JsonWriter w;
 *   w.beginObject().field("count", 3).key("mean").fixed(1.5, 1);
 *   w.endObject().take(); // {"count":3,"mean":1.5}
 */

#ifndef MIRAGE_TRACE_JSON_H
#define MIRAGE_TRACE_JSON_H

#include <concepts>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "base/types.h"

namespace mirage::trace {

class JsonWriter
{
  public:
    JsonWriter &beginObject() { return open('{'); }
    JsonWriter &endObject() { return close('}'); }
    JsonWriter &beginArray() { return open('['); }
    JsonWriter &endArray() { return close(']'); }

    /** An object member's name; the next call writes its value. */
    JsonWriter &
    key(std::string_view k)
    {
        str(k);
        out_ += ':';
        after_key_ = true;
        return *this;
    }

    /** A string value, escaped. */
    JsonWriter &str(std::string_view s);

    /** An integer, or true/false for a bool. */
    template <std::integral T>
    JsonWriter &
    num(T v)
    {
        if constexpr (std::is_same_v<T, bool>)
            return raw(v ? "true" : "false");
        else if constexpr (std::is_signed_v<T>)
            return integer(i64(v));
        else
            return integer(u64(v));
    }

    /** A double with @p decimals digits after the point (printf %.Nf). */
    JsonWriter &fixed(double v, int decimals);

    /** A value rendered elsewhere (a nested document, a %g number). */
    JsonWriter &
    raw(std::string_view rendered)
    {
        separate();
        out_ += rendered;
        return *this;
    }

    /** key(k), then @p v as num() (integers, bools) or str(). */
    template <class T>
    JsonWriter &
    field(std::string_view k, const T &v)
    {
        key(k);
        if constexpr (std::is_integral_v<T>)
            return num(v);
        else
            return str(v);
    }

    /** field() for each name/value pair. */
    JsonWriter &fields() { return *this; }
    template <class T, class... Rest>
    JsonWriter &
    fields(std::string_view k, const T &v, const Rest &...rest)
    {
        return field(k, v).fields(rest...);
    }

    /** Break the line before the next element or closing bracket. */
    JsonWriter &
    newline()
    {
        newline_ = true;
        return *this;
    }

    /** The document (a line break still owed is written first). */
    std::string
    take()
    {
        flushNewline();
        return std::move(out_);
    }

  private:
    JsonWriter &integer(i64 v);
    JsonWriter &integer(u64 v);

    JsonWriter &
    open(char c)
    {
        raw(std::string_view(&c, 1));
        first_ = true;
        return *this;
    }

    JsonWriter &
    close(char c)
    {
        flushNewline();
        out_ += c;
        first_ = false;
        return *this;
    }

    /** The comma and line break owed before a new element. */
    void
    separate()
    {
        if (!after_key_ && !first_)
            out_ += ',';
        if (!after_key_)
            flushNewline();
        first_ = after_key_ = false;
    }

    void
    flushNewline()
    {
        if (newline_)
            out_ += '\n';
        newline_ = false;
    }

    std::string out_;
    bool first_ = true;      //!< no element yet at this nesting level
    bool after_key_ = false; //!< a key was written; its value is next
    bool newline_ = false;   //!< a line break is owed
};

/**
 * A flat object from name/value pairs (strings, integers, bools):
 * `jsonObject("port", 80, "op", "read")` is `{"port":80,"op":"read"}`.
 * Trace-event `args` are built this way.
 */
template <class... Fields>
std::string
jsonObject(const Fields &...fields)
{
    return JsonWriter().beginObject().fields(fields...).endObject().take();
}

} // namespace mirage::trace

#endif // MIRAGE_TRACE_JSON_H
