// Small string helpers shared by the dataset IO layer and bench printers.
#ifndef AUTOHENS_UTIL_STRING_UTIL_H_
#define AUTOHENS_UTIL_STRING_UTIL_H_

#include <charconv>
#include <string>
#include <vector>

namespace ahg {

// Splits `text` on `delim`, keeping empty fields.
std::vector<std::string> StrSplit(const std::string& text, char delim);

// Removes leading/trailing whitespace.
std::string StrTrim(const std::string& text);

// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

// Checked parse for numbers in text read from disk: true only when all of
// `text` is one decimal number that fits T. Never throws.
template <typename T>
bool ParseNumber(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

// "12.3%" / "4.7x"-style fixed-precision float rendering.
std::string FormatFloat(double value, int precision);

}  // namespace ahg

#endif  // AUTOHENS_UTIL_STRING_UTIL_H_
