#include "trace/json.h"

#include <charconv>

#include "base/logging.h"

namespace mirage::trace {

JsonWriter &
JsonWriter::str(std::string_view s)
{
    static constexpr char hex[] = "0123456789abcdef";
    separate();
    out_ += '"';
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out_ += '\\';
            out_ += c;
        } else if (c == '\n') {
            out_ += "\\n";
        } else if (c == '\t') {
            out_ += "\\t";
        } else if (u8(c) < 0x20) {
            out_ += "\\u00";
            out_ += hex[u8(c) >> 4];
            out_ += hex[u8(c) & 0xf];
        } else {
            out_ += c;
        }
    }
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::integer(i64 v)
{
    char buf[24];
    return raw(std::string_view(buf, std::to_chars(buf, buf + 24, v).ptr));
}

JsonWriter &
JsonWriter::integer(u64 v)
{
    char buf[24];
    return raw(std::string_view(buf, std::to_chars(buf, buf + 24, v).ptr));
}

JsonWriter &
JsonWriter::fixed(double v, int decimals)
{
    return raw(strprintf("%.*f", decimals, v));
}

} // namespace mirage::trace
