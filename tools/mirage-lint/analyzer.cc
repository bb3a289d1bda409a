#include "analyzer.h"

#include <algorithm>
#include <cctype>

namespace mlint {

namespace {

const std::vector<std::string> kChecks = {
    "continuation-self-capture", "lease-escape", "wall-clock-in-sim",
    "ring-index-unmasked",       "flow-scope-hop",
};

bool
isIdent(const Token &t, const char *s)
{
    return t.kind == TokKind::Ident && t.text == s;
}

bool
isPunct(const Token &t, const char *s)
{
    return t.kind == TokKind::Punct && t.text == s;
}

/** Index of the bracket matching toks[i] (one of ( [ { ), or end. */
std::size_t
matchForward(const std::vector<Token> &toks, std::size_t i)
{
    const std::string &open = toks[i].text;
    std::string close = open == "(" ? ")" : open == "[" ? "]" : "}";
    int depth = 0;
    for (std::size_t j = i; j < toks.size(); j++) {
        if (toks[j].kind != TokKind::Punct)
            continue;
        if (toks[j].text == open)
            depth++;
        else if (toks[j].text == close && --depth == 0)
            return j;
    }
    return toks.size();
}

const std::set<std::string> kKeywordsNotCalls = {
    "if", "while", "for", "switch", "catch", "return", "sizeof",
    "alignof", "decltype", "new", "delete", "static_assert", "assert",
    "defined",
};

/** True when toks[i] == "[" begins a lambda introducer rather than a
 *  subscript: the previous significant token cannot end an expression. */
bool
isLambdaStart(const std::vector<Token> &toks, std::size_t i)
{
    if (!isPunct(toks[i], "["))
        return false;
    if (i == 0)
        return true;
    const Token &p = toks[i - 1];
    if (p.kind == TokKind::Ident)
        return p.text == "return" || p.text == "case" || p.text == "co_return";
    if (p.kind == TokKind::Number || p.kind == TokKind::String ||
        p.kind == TokKind::Char)
        return false;
    // After ) ] and most postfixes a [ is a subscript.
    return !(p.text == ")" || p.text == "]");
}

std::string
lowerNoUnderscore(const std::string &s)
{
    std::string out;
    for (char c : s)
        if (c != '_')
            out += char(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

bool
isRingCounterName(const std::string &s)
{
    static const std::set<std::string> names = {
        "reqprod", "reqprodpvt", "rspprod", "rspprodpvt",
        "reqcons", "reqconspvt", "rspcons", "rspconspvt",
    };
    return names.count(lowerNoUnderscore(s)) > 0;
}

bool
identContainsFlow(const std::string &s)
{
    std::string low;
    for (char c : s)
        low += char(std::tolower(static_cast<unsigned char>(c)));
    return low.find("flow") != std::string::npos;
}

/** Walk back from toks[method_idx] collecting the receiver chain; sets
 *  @p root to the chain's first identifier and @p arrow when the chain
 *  dereferences it with ->. */
void
receiverChain(const std::vector<Token> &toks, std::size_t method_idx,
              std::string &root, bool &arrow)
{
    root.clear();
    arrow = false;
    std::size_t i = method_idx;
    bool any_arrow = false;
    std::string first_ident = toks[method_idx].text;
    while (i > 0) {
        const Token &p = toks[i - 1];
        if (isPunct(p, "->") || isPunct(p, ".") || isPunct(p, "::")) {
            if (p.text == "->")
                any_arrow = true;
            i--;
            continue;
        }
        if (p.kind == TokKind::Ident) {
            // Only part of the chain if joined by a member operator.
            if (i < toks.size() &&
                (isPunct(toks[i], "->") || isPunct(toks[i], ".") ||
                 isPunct(toks[i], "::"))) {
                first_ident = p.text;
                i--;
                continue;
            }
            break;
        }
        if (isPunct(p, ")") || isPunct(p, "]")) {
            // Skip a balanced group, e.g. foo().bar or a[i].bar.
            std::string close = p.text;
            std::string open = close == ")" ? "(" : "[";
            int depth = 0;
            std::size_t j = i - 1;
            while (true) {
                if (toks[j].kind == TokKind::Punct) {
                    if (toks[j].text == close)
                        depth++;
                    else if (toks[j].text == open && --depth == 0)
                        break;
                }
                if (j == 0)
                    break;
                j--;
            }
            i = j;
            continue;
        }
        break;
    }
    root = first_ident;
    arrow = any_arrow;
}

} // namespace

const std::vector<std::string> &
checkNames()
{
    return kChecks;
}

void
commentDirectives(const LexedFile &f, const char *key,
                  std::vector<std::pair<int, std::string>> &out)
{
    // Sorted token lines, to resolve "own line" comments onto the next
    // line that has code.
    std::vector<int> tok_lines;
    tok_lines.reserve(f.toks.size() + f.includes.size());
    for (const Token &t : f.toks)
        tok_lines.push_back(t.line);
    // #include lines carry no tokens but can be finding targets.
    for (const auto &[line, inc] : f.includes)
        tok_lines.push_back(line);
    std::sort(tok_lines.begin(), tok_lines.end());

    const std::string want = std::string(key);
    for (const Comment &c : f.comments) {
        std::size_t at = c.text.find(want);
        if (at == std::string::npos)
            continue;
        std::size_t open = c.text.find('(', at);
        std::string list;
        if (open != std::string::npos) {
            std::size_t close = c.text.find(')', open);
            if (close == std::string::npos)
                continue;
            list = c.text.substr(open + 1, close - open - 1);
        } else {
            // "expect: name" form: take the rest of the comment.
            std::size_t colon = c.text.find(':', at);
            if (colon == std::string::npos)
                continue;
            list = c.text.substr(colon + 1);
        }
        int line = c.line;
        if (c.own_line) {
            auto it = std::upper_bound(tok_lines.begin(),
                                       tok_lines.end(), c.line);
            if (it != tok_lines.end())
                line = *it;
        }
        // Split the list on commas/whitespace.
        std::string cur;
        auto flush = [&] {
            if (!cur.empty())
                out.emplace_back(line, cur);
            cur.clear();
        };
        for (char ch : list) {
            if (ch == ',' || std::isspace(static_cast<unsigned char>(ch)))
                flush();
            else
                cur += ch;
        }
        flush();
    }
}

// ---- Symbol collection ---------------------------------------------------

void
Analyzer::collectSymbols(const LexedFile &f)
{
    const auto &t = f.toks;
    for (std::size_t i = 0; i + 2 < t.size(); i++) {
        // using Alias = ...shared_ptr<...>...;
        if (isIdent(t[i], "using") && t[i + 1].kind == TokKind::Ident &&
            isPunct(t[i + 2], "=")) {
            for (std::size_t j = i + 3;
                 j < t.size() && !isPunct(t[j], ";"); j++) {
                if (isIdent(t[j], "shared_ptr")) {
                    aliases_.insert(t[i + 1].text);
                    break;
                }
            }
        }
    }
    for (std::size_t i = 0; i < t.size(); i++) {
        // shared_ptr<...> name   |   Alias name
        bool shared_type = false;
        std::size_t name_at = 0;
        if (isIdent(t[i], "shared_ptr") && i + 1 < t.size() &&
            isPunct(t[i + 1], "<")) {
            std::size_t close = i + 1;
            int depth = 0;
            for (; close < t.size(); close++) {
                if (isPunct(t[close], "<"))
                    depth++;
                else if (isPunct(t[close], ">") && --depth == 0)
                    break;
                else if (isPunct(t[close], ">>") && (depth -= 2) <= 0)
                    break;
            }
            if (close + 1 < t.size() &&
                t[close + 1].kind == TokKind::Ident) {
                shared_type = true;
                name_at = close + 1;
            }
        } else if (t[i].kind == TokKind::Ident && aliases_.count(t[i].text) &&
                   i + 1 < t.size() && t[i + 1].kind == TokKind::Ident &&
                   (i == 0 || !isPunct(t[i - 1], "::")) &&
                   (i == 0 || !isIdent(t[i - 1], "using"))) {
            shared_type = true;
            name_at = i + 1;
        }
        if (shared_type && name_at < t.size()) {
            const std::string &name = t[name_at].text;
            if (name_at + 1 < t.size() &&
                (isPunct(t[name_at + 1], ";") ||
                 isPunct(t[name_at + 1], "=") ||
                 isPunct(t[name_at + 1], ",") ||
                 isPunct(t[name_at + 1], ")") ||
                 isPunct(t[name_at + 1], "{")))
                shared_.insert(name);
        }
        // auto name = ...make_shared / shared_from_this / Alias(...)...
        if (isIdent(t[i], "auto") && i + 2 < t.size() &&
            t[i + 1].kind == TokKind::Ident && isPunct(t[i + 2], "=")) {
            for (std::size_t j = i + 3;
                 j < t.size() && !isPunct(t[j], ";"); j++) {
                if (isIdent(t[j], "make_shared") ||
                    isIdent(t[j], "shared_from_this") ||
                    isIdent(t[j], "shared_ptr") ||
                    (t[j].kind == TokKind::Ident &&
                     aliases_.count(t[j].text))) {
                    shared_.insert(t[i + 1].text);
                    break;
                }
            }
        }
    }
}

bool
Analyzer::isShared(const std::string &name) const
{
    return shared_.count(name) > 0;
}

// ---- Structure recovery --------------------------------------------------

std::vector<Analyzer::Function>
Analyzer::segment(const LexedFile &f) const
{
    std::vector<Function> out;
    const auto &t = f.toks;
    std::size_t i = 0;
    while (i < t.size()) {
        if (t[i].kind != TokKind::Ident ||
            kKeywordsNotCalls.count(t[i].text) ||
            i + 1 >= t.size() || !isPunct(t[i + 1], "(")) {
            i++;
            continue;
        }
        // Candidate: Name ( ... ) [qualifiers] { body }
        std::size_t close = matchForward(t, i + 1);
        if (close >= t.size()) {
            i++;
            continue;
        }
        std::size_t j = close + 1;
        bool init_list = false;
        // Skip trailing specifiers and, for constructors, the member
        // initialiser list (paren or brace initialisers).
        while (j < t.size()) {
            const Token &q = t[j];
            if (q.kind == TokKind::Ident &&
                (q.text == "const" || q.text == "noexcept" ||
                 q.text == "override" || q.text == "final" ||
                 q.text == "mutable"))
                j++;
            else if (isPunct(q, ":") && !init_list) {
                init_list = true;
                j++;
            } else if (init_list &&
                       (q.kind == TokKind::Ident ||
                        q.kind == TokKind::Number ||
                        q.kind == TokKind::String ||
                        isPunct(q, ",") || isPunct(q, "::") ||
                        isPunct(q, "<") || isPunct(q, ">")))
                j++;
            else if (init_list &&
                     (isPunct(q, "(") ||
                      (isPunct(q, "{") && j > 0 &&
                       t[j - 1].kind == TokKind::Ident)))
                j = matchForward(t, j) + 1;
            else if (isPunct(q, "->")) {
                // Trailing return type: skip to the { or ;.
                while (j < t.size() && !isPunct(t[j], "{") &&
                       !isPunct(t[j], ";"))
                    j++;
            } else
                break;
        }
        if (j >= t.size() || !isPunct(t[j], "{")) {
            i++;
            continue;
        }
        std::size_t body_end = matchForward(t, j);
        // Reject control-flow false positives that slipped through and
        // obvious non-functions (the name must not be a call: the token
        // before the name is not . or -> ).
        if (i > 0 && (isPunct(t[i - 1], ".") || isPunct(t[i - 1], "->"))) {
            i++;
            continue;
        }
        Function fn;
        fn.name = t[i].text;
        fn.line = t[i].line;
        fn.qualified = t[i].text;
        if (i >= 2 && isPunct(t[i - 1], "::") &&
            t[i - 2].kind == TokKind::Ident)
            fn.qualified = t[i - 2].text + "::" + t[i].text;
        fn.body_begin = j + 1;
        fn.body_end = body_end;
        out.push_back(fn);
        i = body_end + 1;
    }
    return out;
}

void
Analyzer::findLambdas(const LexedFile &f, Function &fn) const
{
    const auto &t = f.toks;
    // Paren stack of (open index, method name index or npos).
    std::vector<std::pair<std::size_t, std::size_t>> parens;
    for (std::size_t i = fn.body_begin; i < fn.body_end; i++) {
        if (isPunct(t[i], "(")) {
            std::size_t m = std::string::npos;
            if (i > 0 && t[i - 1].kind == TokKind::Ident &&
                !kKeywordsNotCalls.count(t[i - 1].text))
                m = i - 1;
            parens.emplace_back(i, m);
            continue;
        }
        if (isPunct(t[i], ")")) {
            if (!parens.empty())
                parens.pop_back();
            continue;
        }
        if (!isLambdaStart(t, i))
            continue;
        std::size_t cap_end = matchForward(t, i);
        if (cap_end >= fn.body_end)
            continue;
        Lambda lam;
        lam.line = t[i].line;
        // Parse the capture list: split on top-level commas.
        std::size_t item = i + 1;
        while (item < cap_end) {
            std::size_t end = item;
            int depth = 0;
            while (end < cap_end) {
                const std::string &x = t[end].text;
                if (t[end].kind == TokKind::Punct) {
                    if (x == "(" || x == "[" || x == "{" || x == "<")
                        depth++;
                    else if (x == ")" || x == "]" || x == "}" || x == ">")
                        depth--;
                    else if (x == "," && depth == 0)
                        break;
                }
                end++;
            }
            // Item in [item, end).
            if (item < end) {
                if (isIdent(t[item], "this"))
                    lam.captures_this = true;
                else if (isPunct(t[item], "*") && item + 1 < end &&
                         isIdent(t[item + 1], "this"))
                    lam.captures_this = true;
                else if (isPunct(t[item], "&")) {
                    // by-reference: not a cycle-former
                } else if (t[item].kind == TokKind::Ident) {
                    // `name` or `name = expr` (init-capture): the
                    // captured name is the first identifier either way.
                    lam.copies.insert(t[item].text);
                }
            }
            item = end + 1;
        }
        // Body: skip optional (params), specifiers, trailing return.
        std::size_t j = cap_end + 1;
        if (j < fn.body_end && isPunct(t[j], "("))
            j = matchForward(t, j) + 1;
        while (j < fn.body_end &&
               (isIdent(t[j], "mutable") || isIdent(t[j], "noexcept") ||
                isIdent(t[j], "constexpr")))
            j++;
        if (j < fn.body_end && isPunct(t[j], "->"))
            while (j < fn.body_end && !isPunct(t[j], "{"))
                j++;
        if (j >= fn.body_end || !isPunct(t[j], "{")) {
            // Not a lambda after all (e.g. an attribute); skip.
            continue;
        }
        lam.body_begin = j + 1;
        lam.body_end = matchForward(t, j);
        // Receiver of the call this lambda is an argument of.
        for (auto it = parens.rbegin(); it != parens.rend(); ++it) {
            if (it->second != std::string::npos) {
                lam.recv_method = t[it->second].text;
                receiverChain(t, it->second, lam.recv_root,
                              lam.recv_arrow);
                break;
            }
        }
        fn.lambdas.push_back(lam);
        // Continue scanning after the capture list so nested lambdas
        // inside this body are also collected.
    }
}

// ---- Check 1: continuation-self-capture ----------------------------------

void
Analyzer::checkSelfCapture(const LexedFile &f, const Function &fn,
                           std::vector<Finding> &out) const
{
    const auto &t = f.toks;
    // (a) direct: lambda captures by copy the root of the receiver
    // chain it is being registered through.
    for (const Lambda &lam : fn.lambdas) {
        if (lam.recv_root.empty() || !lam.recv_arrow)
            continue;
        if (lam.recv_root == "this")
            continue;
        if (lam.copies.count(lam.recv_root) &&
            isShared(lam.recv_root)) {
            out.push_back(Finding{
                "continuation-self-capture", f.path, lam.line,
                fn.qualified,
                "lambda registered through '" + lam.recv_root + "->" +
                    (lam.recv_method.empty() ? "" : lam.recv_method) +
                    "(...)' captures '" + lam.recv_root +
                    "' by copy: the stored continuation keeps its own "
                    "owner alive (shared_ptr cycle)"});
        }
    }
    // (b) mutual: a->reg([... b ...]) and b->reg([... a ...]).
    for (std::size_t x = 0; x < fn.lambdas.size(); x++) {
        for (std::size_t y = x + 1; y < fn.lambdas.size(); y++) {
            const Lambda &a = fn.lambdas[x];
            const Lambda &b = fn.lambdas[y];
            if (a.recv_root.empty() || b.recv_root.empty())
                continue;
            if (!a.recv_arrow || !b.recv_arrow)
                continue;
            if (a.recv_root == b.recv_root)
                continue;
            if (a.copies.count(b.recv_root) &&
                b.copies.count(a.recv_root) &&
                isShared(a.recv_root) && isShared(b.recv_root)) {
                out.push_back(Finding{
                    "continuation-self-capture", f.path, b.line,
                    fn.qualified,
                    "mutual capture: continuations stored on '" +
                        a.recv_root + "' and '" + b.recv_root +
                        "' each capture the other by copy "
                        "(shared_ptr cycle across the pair)"});
            }
        }
    }
    // (d) member-slot assignment: X->slot = [.. X ..] (or X.slot).
    // The slot lives inside *X, so the stored closure owns its owner.
    for (std::size_t i = fn.body_begin;
         i + 3 < fn.body_end && i + 3 < t.size(); i++) {
        if (t[i].kind != TokKind::Ident || !isPunct(t[i + 1], "=") ||
            !isLambdaStart(t, i + 2))
            continue;
        if (i == 0 ||
            !(isPunct(t[i - 1], "->") || isPunct(t[i - 1], ".")))
            continue;
        std::string root;
        bool arrow = false;
        receiverChain(t, i, root, arrow);
        if (root.empty() || root == "this" || !arrow)
            continue;
        for (const Lambda &lam : fn.lambdas) {
            if (lam.line == t[i + 2].line && lam.copies.count(root) &&
                isShared(root)) {
                out.push_back(Finding{
                    "continuation-self-capture", f.path, lam.line,
                    fn.qualified,
                    "handler slot '" + root + "->" + t[i].text +
                        "' is assigned a lambda that captures '" +
                        root +
                        "' by copy: the object stores a continuation "
                        "that keeps it alive (shared_ptr cycle)"});
                break;
            }
        }
    }
    // (c) self-referential stored function: *fn = [.. fn ..].
    for (std::size_t i = fn.body_begin;
         i + 3 < fn.body_end && i + 3 < t.size(); i++) {
        if (isPunct(t[i], "*") && t[i + 1].kind == TokKind::Ident &&
            isPunct(t[i + 2], "=") && isLambdaStart(t, i + 3)) {
            const std::string &v = t[i + 1].text;
            for (const Lambda &lam : fn.lambdas) {
                if (lam.line == t[i + 3].line &&
                    lam.copies.count(v) && isShared(v)) {
                    out.push_back(Finding{
                        "continuation-self-capture", f.path, lam.line,
                        fn.qualified,
                        "stored std::function '*" + v +
                            "' captures its own shared_ptr '" + v +
                            "' by copy: the heap closure is a "
                            "self-cycle unless every terminal path "
                            "resets it (use rt::asyncLoop)"});
                    break;
                }
            }
        }
    }
}

// ---- Check 2: lease-escape -----------------------------------------------

void
Analyzer::checkLeaseEscape(const LexedFile &f, const Function &fn,
                           std::vector<Finding> &out) const
{
    const auto &t = f.toks;
    // Transfer functions hand the lease to their caller by contract.
    auto transfers = [](const std::string &name) {
        return name.rfind("alloc", 0) == 0 ||
               name.rfind("acquire", 0) == 0 ||
               name.rfind("lease", 0) == 0 || name.rfind("take", 0) == 0;
    };

    // Collect lease-derived locals: X = ...acquirePage()... then a
    // propagation pass for Y = X.value() / Y = X / Y = X.sub(...).
    std::set<std::string> leases;
    for (std::size_t i = fn.body_begin; i < fn.body_end; i++) {
        if (!isIdent(t[i], "acquirePage"))
            continue;
        for (std::size_t j = i; j > fn.body_begin; j--) {
            if (isPunct(t[j], ";") || isPunct(t[j], "{") ||
                isPunct(t[j], "}"))
                break;
            if (isPunct(t[j], "=") && t[j - 1].kind == TokKind::Ident) {
                leases.insert(t[j - 1].text);
                break;
            }
        }
    }
    if (leases.empty())
        return;
    for (int pass = 0; pass < 2; pass++) {
        for (std::size_t i = fn.body_begin; i + 2 < fn.body_end; i++) {
            if (t[i].kind == TokKind::Ident && isPunct(t[i + 1], "=") &&
                t[i + 2].kind == TokKind::Ident &&
                leases.count(t[i + 2].text))
                leases.insert(t[i].text);
        }
    }

    // (i) returned from a non-transfer function.
    if (!transfers(fn.name)) {
        for (std::size_t i = fn.body_begin; i + 1 < fn.body_end; i++) {
            if (isIdent(t[i], "return") &&
                t[i + 1].kind == TokKind::Ident &&
                leases.count(t[i + 1].text) &&
                (i + 2 >= t.size() || isPunct(t[i + 2], ";"))) {
                out.push_back(Finding{
                    "lease-escape", f.path, t[i + 1].line, fn.qualified,
                    "grant-pool lease '" + t[i + 1].text +
                        "' returned from '" + fn.name +
                        "', which is not a lease-transfer "
                        "(alloc*/acquire*) function"});
            }
        }
    }

    // (ii) captured by copy into a lambda.
    for (const Lambda &lam : fn.lambdas) {
        for (const std::string &v : lam.copies) {
            if (leases.count(v)) {
                out.push_back(Finding{
                    "lease-escape", f.path, lam.line, fn.qualified,
                    "grant-pool lease '" + v +
                        "' captured by copy into a lambda: the lease "
                        "lives as long as the stored closure"});
            }
        }
    }

    // (iii) stored into a member container or member field.
    for (std::size_t i = fn.body_begin; i < fn.body_end; i++) {
        bool member_store = false;
        std::string recv;
        if (t[i].kind == TokKind::Ident &&
            (t[i].text == "emplace" || t[i].text == "emplace_back" ||
             t[i].text == "push_back" || t[i].text == "push_front" ||
             t[i].text == "insert" || t[i].text == "emplace_front") &&
            i + 1 < fn.body_end && isPunct(t[i + 1], "(") && i > 1 &&
            (isPunct(t[i - 1], ".") || isPunct(t[i - 1], "->")) &&
            t[i - 2].kind == TokKind::Ident &&
            t[i - 2].text.back() == '_') {
            member_store = true;
            recv = t[i - 2].text;
            std::size_t close = matchForward(t, i + 1);
            for (std::size_t j = i + 2; j < close; j++) {
                if (t[j].kind == TokKind::Ident &&
                    leases.count(t[j].text)) {
                    out.push_back(Finding{
                        "lease-escape", f.path, t[j].line, fn.qualified,
                        "grant-pool lease '" + t[j].text +
                            "' stored into member container '" + recv +
                            "': annotate audited holders with "
                            "mirage-lint: allow(lease-escape)"});
                    break;
                }
            }
        }
        if (!member_store && t[i].kind == TokKind::Ident &&
            t[i].text.back() == '_' && i + 2 < fn.body_end &&
            isPunct(t[i + 1], "=") && t[i + 2].kind == TokKind::Ident &&
            leases.count(t[i + 2].text)) {
            out.push_back(Finding{
                "lease-escape", f.path, t[i].line, fn.qualified,
                "grant-pool lease '" + t[i + 2].text +
                    "' assigned to member '" + t[i].text +
                    "': leases must stay scoped to the I/O operation"});
        }
    }
}

// ---- Check 3: wall-clock-in-sim ------------------------------------------

void
Analyzer::checkWallClock(const LexedFile &f,
                         std::vector<Finding> &out) const
{
    static const std::set<std::string> banned_includes = {
        "<thread>",       "<mutex>",    "<condition_variable>",
        "<future>",       "<random>",   "<ctime>",
        "<sys/time.h>",   "<pthread.h>", "<chrono>",
    };
    static const std::set<std::string> banned_idents = {
        "system_clock",  "steady_clock", "high_resolution_clock",
        "gettimeofday",  "clock_gettime", "timespec_get",
        "random_device", "mt19937",      "mt19937_64",
        "srand",         "drand48",      "lrand48",
        "usleep",        "nanosleep",    "localtime",
        "gmtime",        "mktime",       "this_thread",
    };
    for (const auto &[line, inc] : f.includes) {
        if (banned_includes.count(inc))
            out.push_back(Finding{
                "wall-clock-in-sim", f.path, line, inc,
                "#include " + inc +
                    " in simulation code: src/ must stay on the "
                    "virtual clock / seeded Rng (determinism purity)"});
    }
    const auto &t = f.toks;
    for (std::size_t i = 0; i < t.size(); i++) {
        if (t[i].kind != TokKind::Ident)
            continue;
        const std::string &x = t[i].text;
        bool after_member =
            i > 0 && (isPunct(t[i - 1], ".") || isPunct(t[i - 1], "->"));
        bool after_scope = i > 0 && isPunct(t[i - 1], "::");
        bool std_scope = after_scope && i >= 2 && isIdent(t[i - 2], "std");
        if (banned_idents.count(x) && !after_member) {
            out.push_back(Finding{
                "wall-clock-in-sim", f.path, t[i].line, x,
                "'" + x +
                    "' is host time/randomness/threading: draw time "
                    "from the virtual clock and randomness from the "
                    "seeded mirage::Rng"});
            continue;
        }
        // std::thread / std::async / std::rand / std::time and the
        // bare C calls rand(...) / time(...).
        bool call_like =
            i + 1 < t.size() && isPunct(t[i + 1], "(");
        if ((x == "thread" || x == "async" || x == "jthread") &&
            std_scope) {
            out.push_back(Finding{
                "wall-clock-in-sim", f.path, t[i].line, "std::" + x,
                "host threads in simulation code break single-threaded "
                "virtual-time determinism"});
            continue;
        }
        // `type name()` declarations share the spelling with a call;
        // a call site follows punctuation or a statement keyword.
        bool decl_context = i > 0 && t[i - 1].kind == TokKind::Ident &&
                            t[i - 1].text != "return" &&
                            t[i - 1].text != "co_return" &&
                            t[i - 1].text != "case";
        if ((x == "rand" || x == "time") && call_like && !after_member &&
            !decl_context && (!after_scope || std_scope)) {
            out.push_back(Finding{
                "wall-clock-in-sim", f.path, t[i].line, x,
                "'" + x + "()' is host state: use the virtual clock / "
                          "seeded mirage::Rng"});
        }
    }
}

// ---- Check 4: ring-index-unmasked ----------------------------------------

void
Analyzer::checkRingIndex(const LexedFile &f,
                         std::vector<Finding> &out) const
{
    const auto &t = f.toks;
    auto scanSpan = [&](std::size_t begin, std::size_t end,
                        const char *what) {
        bool masked = false;
        std::size_t counter_at = t.size();
        for (std::size_t j = begin; j < end; j++) {
            if (t[j].kind == TokKind::Punct &&
                (t[j].text == "&" || t[j].text == "%"))
                masked = true;
            if (isIdent(t[j], "slot") || isIdent(t[j], "maskIndex"))
                masked = true; // routed through the masked accessor
            if (t[j].kind == TokKind::Ident &&
                isRingCounterName(t[j].text) && counter_at == t.size())
                counter_at = j;
        }
        if (!masked && counter_at < t.size()) {
            out.push_back(Finding{
                "ring-index-unmasked", f.path, t[counter_at].line,
                t[counter_at].text,
                "free-running ring counter '" + t[counter_at].text +
                    "' used as " + what +
                    " without masking: go through the slot() accessor "
                    "(counters wrap; raw use reads past the ring)"});
        }
    };
    for (std::size_t i = 0; i < t.size(); i++) {
        // Array subscript: [ preceded by an expression.
        if (isPunct(t[i], "[") && !isLambdaStart(t, i)) {
            std::size_t close = matchForward(t, i);
            scanSpan(i + 1, close, "an array index");
        }
        // Byte-offset arithmetic: a .sub(...) call span.
        if (isIdent(t[i], "sub") && i > 0 &&
            (isPunct(t[i - 1], ".") || isPunct(t[i - 1], "->")) &&
            i + 1 < t.size() && isPunct(t[i + 1], "(")) {
            std::size_t close = matchForward(t, i + 1);
            scanSpan(i + 2, close, "a byte offset");
        }
    }
}

// ---- Check 5: flow-scope-hop ---------------------------------------------

void
Analyzer::checkFlowScope(const LexedFile &f, const Function &fn,
                         std::vector<Finding> &out) const
{
    const auto &t = f.toks;
    std::size_t enqueue_at = t.size();
    const char *which = nullptr;
    bool has_flow = false;
    for (std::size_t i = fn.body_begin; i < fn.body_end; i++) {
        if (t[i].kind != TokKind::Ident)
            continue;
        if ((t[i].text == "startRequest" ||
             t[i].text == "startResponse") &&
            i > 0 &&
            (isPunct(t[i - 1], ".") || isPunct(t[i - 1], "->")) &&
            i + 1 < fn.body_end && isPunct(t[i + 1], "(")) {
            if (enqueue_at == t.size()) {
                enqueue_at = i;
                which = t[i].text == "startRequest" ? "startRequest"
                                                    : "startResponse";
            }
        }
        if (identContainsFlow(t[i].text))
            has_flow = true;
    }
    if (enqueue_at < t.size() && !has_flow) {
        out.push_back(Finding{
            "flow-scope-hop", f.path, t[enqueue_at].line, fn.qualified,
            std::string("'") + which +
                "()' enqueues across domains but '" + fn.qualified +
                "' neither stamps a per-slot flow id nor opens a "
                "FlowScope nor restores flow bookkeeping: the request "
                "loses causal attribution at this hop"});
    }
}

// ---- Driver --------------------------------------------------------------

std::vector<Finding>
Analyzer::check(const LexedFile &f, bool wallclock_allowed)
{
    std::vector<Finding> out;
    std::vector<Function> fns = segment(f);
    for (Function &fn : fns) {
        findLambdas(f, fn);
        checkSelfCapture(f, fn, out);
        checkLeaseEscape(f, fn, out);
        checkFlowScope(f, fn, out);
    }
    if (!wallclock_allowed)
        checkWallClock(f, out);
    checkRingIndex(f, out);

    // Apply line-scoped suppression comments.
    std::vector<std::pair<int, std::string>> allows;
    commentDirectives(f, "mirage-lint: allow", allows);
    if (!allows.empty()) {
        std::vector<Finding> kept;
        for (const Finding &fi : out) {
            bool suppressed = false;
            for (const auto &[line, name] : allows) {
                if (fi.line == line &&
                    (name == fi.check || name == "all")) {
                    suppressed = true;
                    break;
                }
            }
            if (!suppressed)
                kept.push_back(fi);
        }
        out = std::move(kept);
    }
    std::sort(out.begin(), out.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.check < b.check;
              });
    return out;
}

} // namespace mlint
