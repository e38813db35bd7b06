"""Tests for the SIGNAL tokenizer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LexerError, SignalError, SourceLocation
from repro.lang.lexer import KEYWORDS, Token, _OPERATORS, tokenize
from repro.lang.parser import parse_process

from test_compile_costs import CORPUS, CORPUS_IDS


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestTokenKinds:
    def test_empty_source_yields_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind == "eof"

    def test_identifiers_and_keywords(self):
        tokens = tokenize("process FOO when BAR default")
        assert [t.kind for t in tokens[:-1]] == [
            "keyword",
            "identifier",
            "keyword",
            "identifier",
            "keyword",
        ]

    def test_keywords_are_case_insensitive(self):
        tokens = tokenize("WHEN When when")
        assert all(t.is_keyword("when") for t in tokens[:-1])

    def test_integer_literal(self):
        token = tokenize("42")[0]
        assert token.kind == "integer"
        assert token.value == 42

    def test_real_literal(self):
        token = tokenize("3.25")[0]
        assert token.kind == "real"
        assert token.value == pytest.approx(3.25)

    def test_boolean_literals(self):
        tokens = tokenize("true false")
        assert tokens[0].value is True
        assert tokens[1].value is False

    def test_underscored_identifier(self):
        token = tokenize("BRAKING_NEXT_STATE")[0]
        assert token.kind == "identifier"
        assert token.text == "BRAKING_NEXT_STATE"

    def test_integer_followed_by_dollar(self):
        assert texts("X $ 1") == ["X", "$", "1"]


class TestOperators:
    @pytest.mark.parametrize(
        "symbol",
        [":=", "/=", "<=", ">=", "(|", "|)", "(", ")", "{", "}", "|", ";", ",", "?",
         "!", "=", "<", ">", "+", "-", "*", "/", "$"],
    )
    def test_each_operator_is_one_token(self, symbol):
        tokens = tokenize(symbol)
        assert len(tokens) == 2
        assert tokens[0].is_operator(symbol)

    def test_composition_brackets_not_split(self):
        assert texts("(| X := Y |)") == ["(|", "X", ":=", "Y", "|)"]

    def test_assign_vs_colon(self):
        tokens = tokenize("X := 1")
        assert tokens[1].is_operator(":=")


class TestCommentsAndPositions:
    def test_percent_comment_to_end_of_line(self):
        assert texts("X % comment with := tokens\nY") == ["X", "Y"]

    def test_line_and_column_tracking(self):
        tokens = tokenize("X\n  Y")
        assert (tokens[0].location.line, tokens[0].location.column) == (1, 1)
        assert (tokens[1].location.line, tokens[1].location.column) == (2, 3)

    def test_unknown_character_raises(self):
        with pytest.raises(LexerError) as excinfo:
            tokenize("X @ Y")
        assert "@" in str(excinfo.value)

    def test_error_carries_location(self):
        with pytest.raises(LexerError) as excinfo:
            tokenize("ABC\n  #")
        assert excinfo.value.location.line == 2


class TestNonAscii:
    """Identifiers and numbers are ASCII; comments accept any text."""

    @pytest.mark.parametrize(
        "source, column",
        [("X := 2²", 7), ("X := ٣", 6), ("X² := 1", 2), ("été", 1)],
        ids=["superscript-digit", "arabic-indic-digit", "superscript-in-name", "accented-letter"],
    )
    def test_non_ascii_letter_or_digit_raises(self, source, column):
        with pytest.raises(LexerError) as excinfo:
            tokenize(source, "bad.sig")
        location = excinfo.value.location
        assert (location.filename, location.line, location.column) == ("bad.sig", 1, column)
        assert "ASCII" in str(excinfo.value)

    def test_non_ascii_symbol_is_an_unexpected_character(self):
        with pytest.raises(LexerError) as excinfo:
            tokenize("X := 1 €")
        assert excinfo.value.message == "unexpected character '€'"
        assert excinfo.value.location.column == 8

    def test_parser_surfaces_the_lexer_error(self):
        with pytest.raises(SignalError):
            parse_process("process P = ( ! integer X; ) (| X := 2² |) end;")

    def test_comments_accept_any_text(self):
        assert texts("X % hé, 2², ٣ €\nY") == ["X", "Y"]

    def test_cli_reports_error_without_traceback(self, tmp_path, cli_server):
        path = tmp_path / "superscript.sig"
        path.write_text(
            "process P = ( ? integer A; ! integer X; ) (| X := A + 2² |) end;\n",
            encoding="utf-8",
        )
        process = cli_server(str(path))
        _out, err = process.communicate(timeout=120)
        assert process.returncode != 0
        assert "error:" in err
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# The single-pattern lexer against the character-at-a-time one
# ---------------------------------------------------------------------------


def _stepping_tokenize(source, filename="<signal>"):
    """Advance one character at a time, as the lexer once did."""
    tokens = []
    line = 1
    column = 1
    index = 0
    length = len(source)

    def location():
        return SourceLocation(line=line, column=column, filename=filename)

    def advance(count):
        nonlocal index, line, column
        for _ in range(count):
            if index < length and source[index] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            index += 1

    while index < length:
        char = source[index]
        if char in " \t\r\n":
            advance(1)
            continue
        if char == "%":
            while index < length and source[index] != "\n":
                advance(1)
            continue
        start_location = location()
        if char.isalpha() or char == "_":
            start = index
            while index < length and (source[index].isalnum() or source[index] == "_"):
                advance(1)
            text = source[start:index]
            lowered = text.lower()
            if lowered in KEYWORDS:
                if lowered in ("true", "false"):
                    tokens.append(
                        Token("keyword", lowered, start_location, value=(lowered == "true"))
                    )
                else:
                    tokens.append(Token("keyword", lowered, start_location))
            else:
                tokens.append(Token("identifier", text, start_location))
            continue
        if char.isdigit():
            start = index
            is_real = False
            while index < length and source[index].isdigit():
                advance(1)
            if index + 1 < length and source[index] == "." and source[index + 1].isdigit():
                is_real = True
                advance(1)
                while index < length and source[index].isdigit():
                    advance(1)
            text = source[start:index]
            if is_real:
                tokens.append(Token("real", text, start_location, value=float(text)))
            else:
                tokens.append(Token("integer", text, start_location, value=int(text)))
            continue
        matched = False
        for operator in _OPERATORS:
            if source.startswith(operator, index):
                advance(len(operator))
                tokens.append(Token("operator", operator, start_location))
                matched = True
                break
        if matched:
            continue
        raise LexerError(f"unexpected character {char!r}", start_location)

    tokens.append(Token("eof", "", location()))
    return tokens


def _outcome(lexer, source):
    """The token stream, or the error message and location."""
    try:
        return lexer(source, "corpus.sig")
    except LexerError as error:
        return ("error", error.message, error.location)


@pytest.mark.parametrize("name, source", CORPUS, ids=CORPUS_IDS)
def test_corpus_tokens_match_the_stepping_lexer(name, source):
    assert tokenize(source, "corpus.sig") == _stepping_tokenize(source, "corpus.sig")
    # An illegal character at a few positions, in code or inside a comment.
    for position in range(0, len(source), max(1, len(source) // 7)):
        broken = source[:position] + "@" + source[position:]
        assert _outcome(tokenize, broken) == _outcome(_stepping_tokenize, broken)


_ASCII = st.text(alphabet=st.characters(max_codepoint=127), max_size=60)
_FRAGMENTS = st.lists(
    st.one_of(
        st.sampled_from(sorted(KEYWORDS) + _OPERATORS + ["TRUE", "When", "%c :=\n"]),
        st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True),
        st.from_regex(r"[0-9]{1,4}(\.[0-9]{1,3})?", fullmatch=True),
        st.sampled_from([" ", "\n", "\t", "\r\n", "  \n\n "]),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(source=st.one_of(_ASCII, _FRAGMENTS.map("".join)))
def test_ascii_sources_match_the_stepping_lexer(source):
    assert _outcome(tokenize, source) == _outcome(_stepping_tokenize, source)


@settings(max_examples=300, deadline=None)
@given(pieces=_FRAGMENTS)
def test_token_locations_point_at_their_text(pieces):
    source = "".join(pieces)
    try:
        tokens = tokenize(source)
    except LexerError:
        return
    lines = source.split("\n")
    for token in tokens[:-1]:
        at = lines[token.location.line - 1][token.location.column - 1 :]
        text = at[: len(token.text)]
        assert (text.lower() if token.kind == "keyword" else text) == token.text
    eof = tokens[-1].location
    assert (eof.line, eof.column) == (len(lines), len(lines[-1]) + 1)
