#include "lexer.h"

#include <sstream>

namespace simlint {

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

namespace {

/** Parse `simlint: allow(rule[, rule...])[: justification]` in @p comment. */
bool
parseSuppression(const std::string &comment, Suppression &out)
{
    const std::size_t mark = comment.find("simlint:");
    if (mark == std::string::npos)
        return false;
    std::size_t p = comment.find("allow", mark);
    if (p == std::string::npos)
        return true; // malformed: "simlint:" with no allow(...)
    p = comment.find('(', p);
    const std::size_t close = comment.find(')', p == std::string::npos
                                                    ? mark : p);
    if (p == std::string::npos || close == std::string::npos)
        return true; // malformed
    std::string inside = comment.substr(p + 1, close - p - 1);
    std::string rule;
    std::istringstream list(inside);
    while (std::getline(list, rule, ','))
        if (!trim(rule).empty())
            out.rules.push_back(trim(rule));
    // Mandatory justification: a ':' after the ')' followed by text.
    const std::size_t colon = comment.find(':', close);
    if (colon != std::string::npos &&
        !trim(comment.substr(colon + 1)).empty())
        out.justified = true;
    return true;
}

/** Extract the quoted target of an `#include "..."` directive, if any. */
void
collectInclude(const std::string &lead, std::vector<std::string> &out)
{
    if (lead.empty() || lead[0] != '#')
        return;
    std::size_t p = lead.find("include", 1);
    if (p == std::string::npos)
        return;
    p = lead.find('"', p);
    if (p == std::string::npos)
        return; // <...> system include
    const std::size_t end = lead.find('"', p + 1);
    if (end != std::string::npos && end > p + 1)
        out.push_back(lead.substr(p + 1, end - p - 1));
}

} // namespace

StrippedFile
stripFile(const std::string &text)
{
    StrippedFile out;
    {
        std::string line;
        std::istringstream in(text);
        while (std::getline(in, line)) {
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            out.raw.push_back(line);
        }
    }
    out.code.reserve(out.raw.size());

    enum State { Code, Block };
    State state = Code;
    bool ppContinuation = false;
    for (std::size_t li = 0; li < out.raw.size(); ++li) {
        const std::string &src = out.raw[li];
        std::string dst(src.size(), ' ');

        // Preprocessor directives (and their backslash continuations)
        // carry no scope or statements we want to lint structurally, but
        // `#include "..."` targets feed the include graph.
        const std::string lead = trim(src);
        const bool isPp = ppContinuation ||
                          (state == Code && !lead.empty() && lead[0] == '#');
        if (isPp) {
            if (!ppContinuation)
                collectInclude(lead, out.includes);
            ppContinuation = !src.empty() && src.back() == '\\';
            out.code.push_back(dst);
            continue;
        }

        std::string comment; // accumulated // comment text on this line
        for (std::size_t i = 0; i < src.size(); ++i) {
            if (state == Block) {
                if (src[i] == '*' && i + 1 < src.size() &&
                    src[i + 1] == '/') {
                    state = Code;
                    ++i;
                }
                continue;
            }
            const char c = src[i];
            if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
                comment = src.substr(i + 2);
                break;
            }
            if (c == '/' && i + 1 < src.size() && src[i + 1] == '*') {
                state = Block;
                ++i;
                continue;
            }
            if (c == '"' || c == '\'') {
                // Raw strings: R"delim( ... )delim"
                if (c == '"' && i > 0 && src[i - 1] == 'R') {
                    const std::size_t open = src.find('(', i);
                    if (open != std::string::npos) {
                        // Appended piece by piece: GCC 12 at -O3 flags
                        // ")" + std::string&& as a -Werror=restrict
                        // overlap it cannot have.
                        std::string delim(1, ')');
                        delim.append(src, i + 1, open - i - 1);
                        delim.push_back('"');
                        const std::size_t end = src.find(delim, open);
                        i = end == std::string::npos
                                ? src.size()
                                : end + delim.size() - 1;
                        continue;
                    }
                }
                const char quote = c;
                ++i;
                while (i < src.size()) {
                    if (src[i] == '\\')
                        ++i;
                    else if (src[i] == quote)
                        break;
                    ++i;
                }
                continue;
            }
            dst[i] = c;
        }

        if (!comment.empty()) {
            Suppression sup;
            if (parseSuppression(comment, sup)) {
                sup.standalone = trim(dst).empty();
                out.suppressions[static_cast<int>(li) + 1] = sup;
            }
        }
        out.code.push_back(dst);
    }
    return out;
}

bool
Token::floatLiteral() const
{
    if (!number())
        return false;
    if (text.size() > 1 && text[1] == 'x')
        return text.find('.') != std::string::npos ||
               text.find('p') != std::string::npos ||
               text.find('P') != std::string::npos;
    return text.find('.') != std::string::npos ||
           text.find('e') != std::string::npos ||
           text.find('E') != std::string::npos ||
           text.back() == 'f' || text.back() == 'F';
}

std::vector<Token>
tokenize(const std::vector<std::string> &code)
{
    std::vector<Token> out;
    for (std::size_t li = 0; li < code.size(); ++li) {
        const std::string &s = code[li];
        const int line = static_cast<int>(li) + 1;
        for (std::size_t i = 0; i < s.size();) {
            const char c = s[i];
            if (std::isspace(static_cast<unsigned char>(c))) {
                ++i;
                continue;
            }
            if (isIdentStart(c)) {
                std::size_t j = i + 1;
                while (j < s.size() && isIdentChar(s[j]))
                    ++j;
                out.push_back({s.substr(i, j - i), line});
                i = j;
                continue;
            }
            if (std::isdigit(static_cast<unsigned char>(c))) {
                std::size_t j = i + 1;
                while (j < s.size() &&
                       (isIdentChar(s[j]) || s[j] == '.' || s[j] == '\'' ||
                        ((s[j] == '+' || s[j] == '-') &&
                         (s[j - 1] == 'e' || s[j - 1] == 'E' ||
                          s[j - 1] == 'p' || s[j - 1] == 'P'))))
                    ++j;
                out.push_back({s.substr(i, j - i), line});
                i = j;
                continue;
            }
            // Multi-char punctuation the rules care about.
            if (i + 1 < s.size()) {
                const char n = s[i + 1];
                if ((c == ':' && n == ':') || (c == '-' && n == '>') ||
                    (c == '[' && n == '[') || (c == ']' && n == ']')) {
                    out.push_back({s.substr(i, 2), line});
                    i += 2;
                    continue;
                }
            }
            out.push_back({std::string(1, c), line});
            ++i;
        }
    }
    return out;
}

std::size_t
matchForward(const std::vector<Token> &t, std::size_t open,
             const char *openSym, const char *closeSym)
{
    int depth = 0;
    for (std::size_t i = open; i < t.size(); ++i) {
        if (t[i].is(openSym))
            ++depth;
        else if (t[i].is(closeSym) && --depth == 0)
            return i;
    }
    return std::string::npos;
}

} // namespace simlint
