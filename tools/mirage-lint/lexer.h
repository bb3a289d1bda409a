/**
 * @file
 * A C++ token scanner sufficient for mirage-lint's structural checks.
 *
 * This is deliberately not a compiler frontend: the checks below need
 * token streams with line numbers, comment side-tables (suppressions
 * and fixture expectations ride in comments) and balanced-bracket
 * structure, none of which requires name lookup or templates. Staying
 * dependency-free keeps the lint gate running everywhere the tree
 * builds.
 */

#ifndef MIRAGE_LINT_LEXER_H
#define MIRAGE_LINT_LEXER_H

#include <map>
#include <string>
#include <vector>

namespace mlint {

enum class TokKind {
    Ident,   //!< identifiers and keywords
    Number,  //!< numeric literals
    String,  //!< string literals (incl. raw strings)
    Char,    //!< character literals
    Punct,   //!< operators and punctuation, longest-match
};

struct Token
{
    TokKind kind;
    std::string text;
    int line = 0;
};

/** One // or multi-line comment, attributed to its starting line. */
struct Comment
{
    int line = 0;
    bool own_line = false; //!< no code tokens precede it on its line
    std::string text;      //!< body without the comment markers
};

struct LexedFile
{
    std::string path;
    std::vector<Token> toks;
    std::vector<Comment> comments;
    //! #include targets seen (the <...> or "..." spelling, markers kept)
    std::vector<std::pair<int, std::string>> includes;
};

/** Tokenize @p text. Comments and preprocessor lines leave the token
 *  stream but are recorded in the side tables. */
LexedFile lex(const std::string &path, const std::string &text);

/** Whole file as a string, or empty + ok=false. */
std::string readFile(const std::string &path, bool &ok);

} // namespace mlint

#endif // MIRAGE_LINT_LEXER_H
