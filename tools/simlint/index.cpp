#include "index.h"

#include <algorithm>
#include <deque>

namespace simlint {

namespace {

/** Whether [b,e) contains a constness keyword. */
bool
spanHasConst(const std::vector<Token> &t, std::size_t b, std::size_t e)
{
    for (std::size_t j = b; j < e; ++j)
        if (t[j].is("const") || t[j].is("constexpr") ||
            t[j].is("constinit") || t[j].is("consteval"))
            return true;
    return false;
}

/** Whether [b,e) looks like a function declaration: `ident (` with no
 *  preceding `=` (an initializer call like `int x = f();` is not). */
bool
spanIsFunction(const std::vector<Token> &t, std::size_t b, std::size_t e)
{
    for (std::size_t j = b; j + 1 < e; ++j) {
        if (t[j].is("="))
            return false;
        if ((t[j].ident() || t[j].is("]")) && t[j + 1].is("("))
            return !t[j].is("alignas") && !t[j].is("decltype") &&
                   !t[j].is("sizeof");
    }
    return false;
}

/** Statement keywords that rule out a namespace-scope variable decl. */
const std::set<std::string> &
skipLeadKeywords()
{
    static const std::set<std::string> kw = {
        "using",  "typedef",  "namespace", "template", "extern",
        "friend", "struct",   "class",     "union",    "enum",
        "public", "private",  "protected", "operator",
        "if",     "for",      "while",     "return",   "switch",
    };
    return kw;
}

/** Keywords/casts that look like `ident(` but are not call edges. */
const std::set<std::string> &
nonCallKeywords()
{
    static const std::set<std::string> kw = {
        "if",         "for",        "while",      "switch",
        "return",     "sizeof",     "alignof",    "alignas",
        "decltype",   "catch",      "new",        "delete",
        "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
        "static_assert", "defined",  "noexcept",  "operator",
        "throw",      "co_return",  "co_await",   "co_yield",
        "assert",
    };
    return kw;
}

/** Control keywords whose `(...) {` is a block, not a function body. */
const std::set<std::string> &
controlKeywords()
{
    static const std::set<std::string> kw = {
        "if", "for", "while", "switch", "catch", "do", "else",
    };
    return kw;
}

struct Scope
{
    char kind = 'o'; ///< 'n' namespace, 'c' class, 'f' function, 'o' other
    std::size_t fnIndex = 0; ///< into the per-file function list ('f' only)
};

/** One scanned function body, before grouping into the index. */
struct RawFunction
{
    FunctionDef def;
    std::size_t bodyBegin = 0; ///< token index just after the opening '{'
    std::size_t bodyEnd = 0;   ///< token index of the closing '}'
};

struct FileScan
{
    std::vector<MutableState> mutables;
    std::vector<RawFunction> functions;
};

/** End of the declaration starting at @p from: `;`/`{`/`}` at depth 0. */
std::size_t
declEnd(const std::vector<Token> &t, std::size_t from)
{
    int pd = 0;
    for (std::size_t j = from; j < t.size(); ++j) {
        if (t[j].is("("))
            ++pd;
        else if (t[j].is(")"))
            --pd;
        else if (pd == 0 && (t[j].is(";") || t[j].is("{") || t[j].is("}")))
            return j;
    }
    return t.size();
}

FileScan
scanFile(const FileUnit &unit)
{
    const std::vector<Token> &t = unit.tokens;
    FileScan out;
    std::vector<Scope> scopes;
    std::size_t stmtStart = 0;
    int parenDepth = 0;

    auto atNsScope = [&]() {
        return std::all_of(scopes.begin(), scopes.end(),
                           [](const Scope &s) { return s.kind == 'n'; });
    };
    auto enclosingFunction = [&]() -> RawFunction * {
        for (auto it = scopes.rbegin(); it != scopes.rend(); ++it)
            if (it->kind == 'f')
                return &out.functions[it->fnIndex];
        return nullptr;
    };

    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].is("(")) {
            ++parenDepth;
        } else if (t[i].is(")")) {
            --parenDepth;
        } else if (t[i].is("{")) {
            Scope scope;
            bool sawEq = false;
            char declared = 0;
            for (std::size_t j = stmtStart; j < i; ++j) {
                if (t[j].is("="))
                    sawEq = true;
                else if (t[j].is("namespace"))
                    declared = 'n';
                else if (!sawEq && !declared &&
                         (t[j].is("class") || t[j].is("struct") ||
                          t[j].is("union") || t[j].is("enum")))
                    declared = 'c';
            }
            if (declared == 'n') {
                scope.kind = 'n';
            } else if (declared == 'c' && !sawEq) {
                scope.kind = 'c';
            } else if (enclosingFunction() || sawEq) {
                scope.kind = 'o'; // inner block or brace initializer
            } else {
                // A `{` at namespace/class scope whose statement carries
                // a top-level `name(...)` is a function definition. An
                // operator is not a function by that name: `operator()`
                // has no name token, and in `operator new(` / `operator
                // bool(` the token before '(' names the operator, which
                // would merge every such definition in the call graph.
                std::size_t open = std::string::npos;
                int pd = 0;
                for (std::size_t j = stmtStart; j < i; ++j) {
                    if (t[j].is("(")) {
                        if (pd == 0 && open == std::string::npos)
                            open = j;
                        ++pd;
                    } else if (t[j].is(")")) {
                        --pd;
                    }
                }
                if (open != std::string::npos && open > stmtStart &&
                    t[open - 1].ident() &&
                    !controlKeywords().count(t[open - 1].text) &&
                    !t[open - 1].is("operator") &&
                    !(open - 1 > stmtStart && t[open - 2].is("operator"))) {
                    RawFunction fn;
                    fn.def.name = t[open - 1].text;
                    fn.def.file = unit.path;
                    fn.def.line = t[open - 1].line;
                    fn.bodyBegin = i + 1;
                    scope.kind = 'f';
                    scope.fnIndex = out.functions.size();
                    out.functions.push_back(std::move(fn));
                } else {
                    scope.kind = 'o';
                }
            }
            scopes.push_back(scope);
            stmtStart = i + 1;
            continue;
        } else if (t[i].is("}")) {
            if (!scopes.empty()) {
                if (scopes.back().kind == 'f')
                    out.functions[scopes.back().fnIndex].bodyEnd = i;
                scopes.pop_back();
            }
            stmtStart = i + 1;
            continue;
        } else if (t[i].is(";") && parenDepth == 0) {
            stmtStart = i + 1;
            continue;
        }

        // Call edges: `identifier(` inside a function body.
        if (t[i].ident() && i + 1 < t.size() && t[i + 1].is("(") &&
            !nonCallKeywords().count(t[i].text)) {
            if (RawFunction *fn = enclosingFunction())
                fn->def.calls.insert(t[i].text);
        }

        // (a) `static` mutable state at any scope (function-local,
        //     class-static data member, namespace scope).
        if (t[i].is("static") && parenDepth == 0) {
            const std::size_t end = declEnd(t, i);
            if (!spanHasConst(t, i, end) && !spanIsFunction(t, i, end)) {
                std::string name;
                for (std::size_t j = i + 1; j < end; ++j) {
                    if (t[j].is("=") || t[j].is("{"))
                        break;
                    if (t[j].ident())
                        name = t[j].text;
                }
                if (!name.empty()) {
                    MutableState m;
                    m.name = name;
                    m.file = unit.path;
                    m.line = t[i].line;
                    m.staticKeyword = true;
                    if (const RawFunction *fn = enclosingFunction()) {
                        m.kind = MutableState::Kind::FunctionStatic;
                        m.owner = fn->def.name;
                    } else if (!scopes.empty() &&
                               scopes.back().kind == 'c') {
                        m.kind = MutableState::Kind::ClassStatic;
                    } else {
                        m.kind = MutableState::Kind::NamespaceVar;
                    }
                    out.mutables.push_back(std::move(m));
                }
            }
            continue;
        }

        // (b) bare namespace-scope variable declarations. The decl ends
        // at `;`, or at a brace initializer (`Type name{0};`) whose
        // matching close is immediately followed by `;`.
        if (i == stmtStart && atNsScope() && t[i].ident() &&
            parenDepth == 0) {
            const std::size_t end = declEnd(t, i);
            std::size_t term = end;
            if (end < t.size() && t[end].is("{")) {
                const std::size_t close = matchForward(t, end, "{", "}");
                term = (close != std::string::npos &&
                        close + 1 < t.size() && t[close + 1].is(";"))
                           ? close + 1
                           : end;
            }
            if (term < t.size() && t[term].is(";")) {
                bool skip = skipLeadKeywords().count(t[i].text) ||
                            spanHasConst(t, i, end) ||
                            spanIsFunction(t, i, end);
                std::size_t idents = 0;
                std::string name;
                for (std::size_t j = i; j < end && !skip; ++j) {
                    if (t[j].is("(") || t[j].is("operator") ||
                        skipLeadKeywords().count(t[j].text))
                        skip = true;
                    if (t[j].is("="))
                        break;
                    if (t[j].ident() && !t[j].is("std") &&
                        !t[j].is("inline"))
                        ++idents, name = t[j].text;
                }
                if (!skip && idents >= 2) {
                    MutableState m;
                    m.name = name;
                    m.file = unit.path;
                    m.line = t[i].line;
                    m.kind = MutableState::Kind::NamespaceVar;
                    out.mutables.push_back(std::move(m));
                }
                i = term; // skip past the terminating `;`
                stmtStart = term + 1;
                continue;
            }
        }
    }
    return out;
}

} // namespace

SymbolIndex
buildIndex(const std::vector<FileUnit> &units)
{
    SymbolIndex index;

    // Pass 1: per-file symbols, function bodies, call edges.
    std::vector<FileScan> scans;
    scans.reserve(units.size());
    for (const FileUnit &unit : units) {
        scans.push_back(scanFile(unit));
        for (const MutableState &m : scans.back().mutables)
            index.mutables.push_back(m);
    }

    // Include graph, resolved by path-suffix match within the set.
    for (const FileUnit &unit : units) {
        for (const std::string &target : unit.stripped.includes) {
            for (const FileUnit &candidate : units) {
                const std::string &p = candidate.path;
                const bool matches =
                    p == target ||
                    (p.size() > target.size() + 1 &&
                     p.compare(p.size() - target.size(), target.size(),
                               target) == 0 &&
                     p[p.size() - target.size() - 1] == '/');
                if (matches) {
                    index.includes[unit.path].push_back(p);
                    index.includedBy[p].push_back(unit.path);
                }
            }
        }
    }

    // Pass 2: global references inside function bodies (globals are only
    // fully known after pass 1), then group functions by name.
    std::set<std::string> globalNames;
    for (const MutableState &m : index.mutables)
        if (m.kind != MutableState::Kind::FunctionStatic)
            globalNames.insert(m.name);
    for (std::size_t u = 0; u < units.size(); ++u) {
        for (RawFunction &fn : scans[u].functions) {
            const std::vector<Token> &t = units[u].tokens;
            const std::size_t end = std::min(fn.bodyEnd, t.size());
            for (std::size_t j = fn.bodyBegin; j < end; ++j)
                if (t[j].ident() && globalNames.count(t[j].text))
                    fn.def.globalRefs.insert(t[j].text);
            index.functions[fn.def.name].push_back(std::move(fn.def));
        }
    }
    return index;
}

std::map<std::string, std::string>
reachableFunctions(const SymbolIndex &index,
                   const std::set<std::string> &rootFunctions)
{
    std::map<std::string, std::string> reached;
    std::deque<std::string> queue;
    for (const std::string &root : rootFunctions) {
        if (index.functions.count(root) && !reached.count(root)) {
            reached[root] = root;
            queue.push_back(root);
        }
    }
    while (!queue.empty()) {
        const std::string name = queue.front();
        queue.pop_front();
        const std::string &root = reached[name];
        const auto it = index.functions.find(name);
        if (it == index.functions.end())
            continue;
        for (const FunctionDef &def : it->second) {
            for (const std::string &callee : def.calls) {
                if (!index.functions.count(callee) ||
                    reached.count(callee))
                    continue;
                reached[callee] = root;
                queue.push_back(callee);
            }
        }
    }
    return reached;
}

} // namespace simlint
