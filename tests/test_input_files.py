"""The line-oriented input formats on random text: each parser either
returns or raises one of its documented ``OntoTermError``s, never an
untyped error.  A text is lines drawn near its format's grammar (right and
wrong keywords, quoted and bare labels, missing and extra fields) or
arbitrary lines; the file formats also take arbitrary bytes.  Every line
format, the ontology DSL included, skips the same blank and ``#`` lines."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ontoterm.align import load_stopwords
from ontoterm.corpus import load_lexicon, load_patterns
from ontoterm.errors import (
    BadPatternError,
    ConfigError,
    DslParseError,
    EncodingError,
    UnknownRefError,
    input_lines,
)
from ontoterm.lexnet import parse_decisions
from ontoterm.okmodel import parse_dsl
from ontoterm.pipeline import load_synonym_declarations, parse_config

_JUNK = st.text(max_size=12)
_WORDS = st.sampled_from(["relais", "é", "", " ", "#", '"', "x y"])
_LABELS = st.sampled_from(['"relais"', '"a b"', '""', '"é"', "relais", '"', '"#"'])
_POS = st.sampled_from(["NOUN", "noun", "ADJ", "PREP", "DET", "VERB", "OTHER", "XYZ", ""])
_HEADS = st.sampled_from(["", "head=first", "head=last", "head=mid", "head="])
_VERBS = st.sampled_from(["validate", "reject", "approve"])
_KINDS = st.sampled_from(["hyponymy", "SYNONYMY", "meronymy", "antonymy", "é"])
_KEYS = st.sampled_from(["corpus", "lexicon", "patterns", "dsl", "decisions", "stopwords",
                         "output", "synonyms", "export_format", "iri", "synonym", "1x",
                         "Corpus", "export"])
#: Every required key, so that a config can get past them to the rest.
_REQUIRED = "".join(
    f'{key} = "x"\n'
    for key in ("corpus", "lexicon", "patterns", "dsl", "decisions", "stopwords", "output")
)


def _line(*fields):
    """A line of one value of each of ``fields``, joined by a random blank run."""
    return st.tuples(st.sampled_from([" ", "\t", "  ", ""]), st.tuples(*fields)).map(
        lambda drawn: drawn[0].join(drawn[1])
    )


def _text(*lines):
    """Up to eight lines, drawn all from ``lines`` or all arbitrary."""
    return st.one_of(st.lists(st.one_of(*lines), max_size=8),
                     st.lists(_JUNK, max_size=8)).map("\n".join)


def _bytes(text):
    return st.one_of(text.map(lambda t: t.encode("utf-8")), st.binary(max_size=24))


def _through_file(load):
    def read(data: bytes, directory: Path):
        path = directory / "input"
        path.write_bytes(data)
        return load(path)

    return read


_CONFIG = _text(_line(_KEYS, st.sampled_from(["=", " = ", ":"]),
                      st.one_of(_LABELS, st.sampled_from(["owl", "kif", "xml"]))))
_DECISIONS = _text(_line(_VERBS, st.sampled_from(["term", "relation"]), _LABELS),
                   _line(_VERBS, st.just("relation"), _KINDS, _LABELS, _LABELS))
_PATTERNS = _text(_line(st.sampled_from(["n:", "n_adj:", ":", "n"]),
                        st.lists(_POS, max_size=4).map(" ".join), _HEADS))
_LEXICON = _text(st.lists(st.one_of(_WORDS, _POS), max_size=4).map("\t".join))
_SYNONYMS = _text(_line(_LABELS, _LABELS))

#: parser → (its input strategy, a call on one input, the errors it may raise)
PARSERS = {
    "parse_config": (
        st.one_of(_CONFIG, _CONFIG.map(_REQUIRED.__add__)),
        lambda text, directory: parse_config(text, directory),
        (ConfigError,),
    ),
    "parse_decisions": (_DECISIONS, lambda text, directory: parse_decisions(text), (UnknownRefError,)),
    "load_patterns": (_bytes(_PATTERNS), _through_file(load_patterns), (BadPatternError, EncodingError)),
    "load_lexicon": (_bytes(_LEXICON), _through_file(load_lexicon), (ConfigError, EncodingError)),
    "load_stopwords": (_bytes(_text(_WORDS)), _through_file(load_stopwords), (EncodingError,)),
    "load_synonym_declarations": (
        _bytes(_SYNONYMS), _through_file(load_synonym_declarations), (ConfigError, EncodingError)
    ),
}


@pytest.fixture(scope="module")
def directory(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("inputs")


@pytest.mark.parametrize("parser", PARSERS)
def test_a_parser_raises_only_its_documented_errors(directory, parser):
    inputs, parse, documented = PARSERS[parser]

    @settings(max_examples=150, deadline=None, database=None)
    @given(inputs)
    def check(data):
        try:
            parse(data, directory)
        except documented:
            pass

    check()


# --- the shared line rule -------------------------------------------------------

_PADDING = ["", "   ", "\t", "# a comment", "  \t# an indented comment"]


def _from_file(load):
    read = _through_file(load)
    return lambda text, directory: read(text.encode("utf-8"), directory)


#: format → (its content lines, a line it rejects or None, a parse of one
#: text, the parsed value to compare, the error the rejected line raises)
LINE_FORMATS = {
    "config": (
        _REQUIRED.splitlines() + ['export_format = "kif"'], 'corpus = "y"',
        lambda text, directory: parse_config(text, directory), lambda config: config, ConfigError,
    ),
    "synonyms": (
        ['"relais" "relai"', '"a b"  "c"'], '"relais"',
        _from_file(load_synonym_declarations), lambda pairs: pairs, ConfigError,
    ),
    "lexicon": (
        ["relais\trelais\tNOUN", " Seuil \tseuil\tnoun", "de\tde\tPREP"], " \trelais\tN",
        _from_file(load_lexicon), lambda lexicon: lexicon._entries, ConfigError,
    ),
    "patterns": (
        ["n: NOUN", "  n_adj: NOUN ADJ head=last"], "n: XYZ",
        _from_file(load_patterns), lambda patterns: patterns, BadPatternError,
    ),
    "decisions": (
        ['reject term "relais"', '  validate relation hyponymy "a b" "a"'], "reject everything",
        lambda text, directory: parse_decisions(text), lambda decisions: decisions, UnknownRefError,
    ),
    "stopwords": (
        ["de", "  La ", "l"], None,
        _from_file(load_stopwords), lambda words: words, None,
    ),
    "dsl": (
        ['ontology "relais"', "axis mode values a, b", "concept relais root  # the root",
         "concept r genus relais diff mode=a"], "concept s genus zz diff mode=b",
        lambda text, directory: parse_dsl(text), lambda ontology: ontology, DslParseError,
    ),
}


@pytest.mark.parametrize("name", LINE_FORMATS)
def test_every_line_format_skips_blank_and_comment_lines(tmp_path, name):
    lines, bad, parse, value, error = LINE_FORMATS[name]
    padded = []
    for i, line in enumerate(lines):
        padded += [_PADDING[i % len(_PADDING)], _PADDING[(i + 2) % len(_PADDING)], line]
    padded += _PADDING
    assert value(parse("\n".join(padded), tmp_path)) == value(parse("\n".join(lines), tmp_path))
    if bad is not None:
        with pytest.raises(error, match=f"line {len(padded) + 1}: "):
            parse("\n".join(padded + [bad]), tmp_path)


#: U+FEFF, the byte-order mark an editor may save a UTF-8 file with.
BOM = "\ufeff"


@pytest.mark.parametrize("first", ["", "# a comment\n", "\n"])
@pytest.mark.parametrize("name", LINE_FORMATS)
def test_every_line_format_reads_a_file_saved_with_a_byte_order_mark(tmp_path, name, first):
    lines, bad, parse, value, error = LINE_FORMATS[name]
    text = first + "\n".join(lines)
    assert value(parse(BOM + text, tmp_path)) == value(parse(text, tmp_path))
    if bad is not None:
        # the mark numbers no line of its own
        with pytest.raises(error, match=f"line {text.count(chr(10)) + 2}: "):
            parse(BOM + text + "\n" + bad, tmp_path)


def test_a_byte_order_mark_after_the_start_of_a_file_stays_content(tmp_path):
    assert list(input_lines(BOM + "a\n" + BOM + "b")) == [(1, "a"), (2, BOM + "b")]
    assert list(input_lines(BOM + BOM + "# c")) == [(1, BOM + "# c")]
    stopwords = LINE_FORMATS["stopwords"][2]
    assert stopwords(BOM + "de\n" + BOM + "la", tmp_path) == {"de", BOM + "la"}
    assert stopwords(BOM + BOM + "de", tmp_path) == {BOM + "de"}
    with pytest.raises(ConfigError, match="line 2: expected 'key = value'"):
        parse_config(_REQUIRED.replace("\n", "\n" + BOM + "# c\n", 1), tmp_path)
