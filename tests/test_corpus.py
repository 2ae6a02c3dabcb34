from __future__ import annotations

import ast
import os
import random
import shutil
import subprocess
import sys
import tracemalloc
import unicodedata
from collections import Counter
from pathlib import Path

import pytest

from genutil import (
    annotate_per_token,
    copula_relations_per_token,
    extract_candidates_per_token,
    load_lexicon_oracle,
    pattern_matches_per_token,
    random_corpus_tree,
    random_document,
    random_front_end_case,
    read_corpus_files_oracle,
    regex_match_count,
)
from ontoterm.corpus import (
    DEFAULT_PATTERNS,
    Document,
    HeadPosition,
    Lexicon,
    LexiconEntry,
    POS,
    TAG_CODES,
    PatternDef,
    _compile,
    annotate,
    candidates_from_json,
    candidates_to_json,
    corpus_stats,
    extract_candidates,
    load_corpus,
    load_lexicon,
    load_patterns,
    read_corpus_files,
)
from ontoterm.errors import BadPatternError, ConfigError, EncodingError, NoCorpusError
from ontoterm.lexnet import copula_relations
from ontoterm.fixtures import data_path

N, ADJ, PREP, DET = POS.NOUN, POS.ADJ, POS.PREP, POS.DET

RELAY_LEXICON = Lexicon(
    [
        LexiconEntry("relais", "relais", N),
        LexiconEntry("électromagnétiques", "électromagnétique", ADJ),
        LexiconEntry("électromagnétique", "électromagnétique", ADJ),
        LexiconEntry("des", "de", DET),
        LexiconEntry("de", "de", PREP),
        LexiconEntry("tension", "tension", N),
    ]
)


def tok(text, lexicon=RELAY_LEXICON, doc_id="d"):
    return annotate(Document(doc_id, text), lexicon)


# --- load_corpus ----------------------------------------------------------


def test_load_corpus_sorted_ids(tmp_path):
    (tmp_path / "b.txt").write_text("deux", encoding="utf-8")
    (tmp_path / "a.txt").write_text("un", encoding="utf-8")
    docs = load_corpus(tmp_path)
    assert [d.id for d in docs] == ["a", "b"]


def test_load_corpus_empty_directory(tmp_path):
    with pytest.raises(NoCorpusError):
        load_corpus(tmp_path)


def test_load_corpus_rejects_non_utf8(tmp_path):
    (tmp_path / "bad.txt").write_bytes("relais électrique".encode("latin-1"))
    with pytest.raises(EncodingError) as exc:
        load_corpus(tmp_path)
    assert "bad.txt" in str(exc.value)


def test_load_corpus_skips_blank_files(tmp_path):
    (tmp_path / "a.txt").write_text("relais", encoding="utf-8")
    (tmp_path / "blank.txt").write_text("   \n", encoding="utf-8")
    assert [d.id for d in load_corpus(tmp_path)] == ["a"]


def load_corpus_per_file(directory: Path) -> list[Document]:
    """The loader as it read each top-level ``*.txt`` file itself."""
    docs = []
    for path in sorted(directory.iterdir()):
        if path.suffix != ".txt" or not path.is_file():
            continue
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise EncodingError(f"not valid UTF-8: {path} (byte {exc.start})") from None
        if text.strip():
            docs.append(Document(id=path.stem, text=unicodedata.normalize("NFC", text)))
    if not docs:
        raise NoCorpusError(f"no non-empty .txt documents in {directory}")
    return sorted(docs, key=lambda d: d.id)


def test_load_corpus_decodes_the_bytes_read_once_like_reading_each_file(tmp_path):
    # read_corpus_files against the pathlib listing, load_corpus with and
    # without those bytes against the per-file loader, on the same random
    # trees; files below the top level are no documents and are never read
    rng = random.Random(20101025)
    outcomes = {"loaded": 0, "encoding": 0, "no corpus": 0}
    trees = Counter()
    for case in range(300):
        directory = tmp_path / f"case{case}"
        directory.mkdir()
        random_corpus_tree(rng, directory)
        files = read_corpus_files(directory)
        assert list(files.items()) == list(read_corpus_files_oracle(directory).items())
        trees["nested .txt"] += any(
            path.parent != directory and path.suffix == ".txt" and path.is_file()
            for path in directory.rglob("*")
        )
        ids = [name[:-4] for name in files]
        trees["name order is not id order"] += ids != sorted(ids)
        trees["symlink"] += any(path.is_symlink() for path in directory.rglob("*"))
        try:
            expected = load_corpus_per_file(directory)
        except (EncodingError, NoCorpusError) as exc:
            for load in (load_corpus, lambda d: load_corpus(d, files)):
                with pytest.raises(type(exc)) as raised:
                    load(directory)
                assert str(raised.value) == str(exc)
            outcomes["encoding" if isinstance(exc, EncodingError) else "no corpus"] += 1
            continue
        assert load_corpus(directory) == expected
        assert load_corpus(directory, files) == expected
        outcomes["loaded"] += 1
    assert min(outcomes.values()) >= 30, outcomes
    assert min(trees.values()) >= 30, trees


_READ_IN_CHILD = """
import sys
from pathlib import Path
from genutil import read_corpus_files_oracle
from ontoterm.corpus import read_corpus_files

def outcome(read, directory):
    try:
        return list(read(directory).items())
    except OSError as exc:
        return type(exc).__name__, str(exc)

for directory in map(Path, sys.argv[1:]):
    print(repr((outcome(read_corpus_files_oracle, directory), outcome(read_corpus_files, directory))))
"""


def unprivileged(argv: list[str]) -> list[str]:
    """``argv`` run, as root, without the capabilities that override file
    permissions."""
    if os.geteuid() != 0:
        return argv
    if shutil.which("setpriv") is None:
        pytest.skip("running as root, and setpriv is not installed to drop the override")
    return ["setpriv", "--bounding-set=-dac_override,-dac_read_search", *argv]


def test_corpus_stats_lists_the_files_read_corpus_files_reads_with_their_stat_data(tmp_path):
    """One walk decides which files are documents: the stat listing names
    the files the reader reads, each with the stat data the reader takes
    from the open file."""
    rng = random.Random(20101026)
    listed: Counter = Counter()  # documents listed, by whether a symlink names them
    for case in range(200):
        directory = tmp_path / f"case{case}"
        directory.mkdir()
        random_corpus_tree(rng, directory)
        read: dict[str, os.stat_result] = {}
        files = read_corpus_files(directory, read)
        stats = corpus_stats(directory)
        assert list(stats) == list(read) == list(files)
        fields = ("st_size", "st_mtime_ns", "st_ctime_ns", "st_ino", "st_dev")
        for name, stat in stats.items():
            assert [getattr(stat, f) for f in fields] == [getattr(read[name], f) for f in fields]
        listed += Counter(os.path.islink(directory / name) for name in stats)
    assert listed[False] >= 100 and listed[True] >= 5, listed


def test_read_corpus_files_meets_unreadable_directories_like_the_pathlib_walk(tmp_path):
    # a corpus directory that cannot be listed, one that can be listed but
    # not searched, an unreadable document, and an unreadable non-document
    # beside it
    argv = unprivileged([sys.executable, "-c", _READ_IN_CHILD])
    cases = {"unlisted": (".", 0o000), "unsearched": (".", 0o600),
             "document": ("b.txt", 0o000), "non-document": ("b.md", 0o000)}
    corpora = []
    for case, (name, mode) in cases.items():
        corpus = tmp_path / case
        corpus.mkdir()
        (corpus / "a.txt").write_bytes(b"relais")
        locked = corpus / name  # the corpus itself when name is "."
        if locked != corpus:
            locked.write_bytes(b"tension")
        locked.chmod(mode)
        corpora.append((corpus, locked))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    try:
        child = subprocess.run([*argv, *(str(c) for c, _ in corpora)], env=env,
                               capture_output=True, text=True, timeout=60)
    finally:
        for _, locked in corpora:
            locked.chmod(0o700)
    if child.returncode and child.stderr.startswith("setpriv"):
        pytest.skip(child.stderr)
    assert child.returncode == 0, child.stderr
    outcomes = [ast.literal_eval(line) for line in child.stdout.splitlines()]
    assert [new for old, new in outcomes] == [old for old, new in outcomes]
    unlisted, unsearched, document, non_document = (new for _, new in outcomes)
    denied = "PermissionError", "[Errno 13] Permission denied: '{}'"
    assert unlisted == (denied[0], denied[1].format(tmp_path / "unlisted"))
    assert unsearched == (denied[0], denied[1].format(tmp_path / "unsearched" / "a.txt"))
    assert document == (denied[0], denied[1].format(tmp_path / "document" / "b.txt"))
    assert non_document == [("a.txt", b"relais")]


def test_cli_corpus_that_cannot_be_listed_is_exit_2_e_io_naming_it(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.txt").write_bytes(b"relais")
    argv = unprivileged([sys.executable, "-m", "ontoterm.cli", "extract", "--corpus", str(corpus)])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    corpus.chmod(0o000)
    try:
        child = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    finally:
        corpus.chmod(0o700)
    if child.returncode and child.stderr.startswith("setpriv"):
        pytest.skip(child.stderr)
    assert (child.returncode, child.stderr) == (
        2, f"ontoterm: E_IO: [Errno 13] Permission denied: '{corpus}'\n"
    )


# --- annotate -------------------------------------------------------------


def test_annotate_applies_lexicon():
    tokens = tok("des relais électromagnétiques")
    assert tokens.lemmas == ("de", "relais", "électromagnétique")
    assert tokens.tags == "DNA"
    assert len(tokens) == 3


def test_annotate_empty_text():
    tokens = tok("")
    assert len(tokens) == 0
    assert (tokens.lemmas, tokens.tags, list(tokens.offsets), tokens.copula) == ((), "", [], b"")


def test_annotate_unknown_word_defaults():
    tokens = tok("xyzzy", Lexicon())
    assert (tokens.lemmas, tokens.tags) == (("xyzzy",), "O")


def test_annotate_uppercase_defaults_to_lowercase_lemma():
    tokens = tok("Kaplan", Lexicon())
    assert tokens.lemmas == ("kaplan",)
    assert list(tokens.offsets) == [0]


def test_annotate_splits_elided_articles():
    tokens = tok("l'alarme d'un relais", Lexicon())
    assert tokens.lemmas == ("l'", "alarme", "d'", "un", "relais")
    # offsets index into the document text
    assert list(tokens.offsets) == [0, 2, 9, 11, 14]


def test_annotate_keeps_hyphenated_compounds():
    tokens = tok("relais tout-ou-rien", Lexicon())
    assert tokens.lemmas == ("relais", "tout-ou-rien")


def test_annotate_elided_lookup_falls_back_to_bare_letter():
    lexicon = Lexicon([LexiconEntry("l", "le", DET)])
    tokens = tok("l'appareil", lexicon)
    assert (tokens.lemmas[0], tokens.tags[0]) == ("le", "D")


def test_annotate_flags_copula_surfaces_in_any_case():
    tokens = tok("relais EST tension sont Sont estime", Lexicon())
    assert tokens.copula == bytes([0, 1, 0, 1, 1, 0])


def test_lexicon_tag_is_memoised_per_surface():
    tag = RELAY_LEXICON.tag("Relais")
    assert tag == ("relais", "N", 0)
    assert RELAY_LEXICON.tag("Relais") is tag
    assert RELAY_LEXICON.tag("inconnu") == ("inconnu", "O", 0)


# --- extraction -----------------------------------------------------------


def test_extract_noun_adj():
    cands = extract_candidates([tok("relais électromagnétique")], DEFAULT_PATTERNS)
    assert [c.label for c in cands] == ["relais électromagnétique"]
    assert cands[0].head_lemma == "relais"


def test_extract_noun_prep_noun():
    cands = extract_candidates([tok("relais de tension")], DEFAULT_PATTERNS)
    assert [c.label for c in cands] == ["relais de tension"]
    assert cands[0].head_lemma == "relais"


def test_extract_empty_tokens():
    assert extract_candidates([], DEFAULT_PATTERNS) == []


def test_extract_longest_match_wins():
    # «relais de tension» must not also yield «relais» and «tension» there
    cands = extract_candidates([tok("des relais de tension")], DEFAULT_PATTERNS)
    assert [c.label for c in cands] == ["relais de tension"]


def test_extract_bare_noun_outside_longer_span():
    cands = extract_candidates([tok("relais de tension des relais")], DEFAULT_PATTERNS)
    labels = {c.label: c.frequency for c in cands}
    assert labels == {"relais de tension": 1, "relais": 1}


def test_extract_merges_identical_sequences_across_docs():
    tokens = [tok("relais de tension", doc_id="b"), tok("relais de tension", doc_id="a")]
    cands = extract_candidates(tokens, DEFAULT_PATTERNS)
    assert len(cands) == 1
    assert cands[0].frequency == 2
    assert [doc for doc, _ in cands[0].occurrences] == ["a", "b"]


def test_extract_rejects_pattern_without_noun():
    with pytest.raises(BadPatternError):
        extract_candidates([tok("relais")], [PatternDef("bad", (ADJ,))])


def test_extract_head_last_noun():
    pattern = PatternDef("nn", (N, PREP, N), HeadPosition.LAST_NOUN)
    cands = extract_candidates([tok("relais de tension")], [pattern])
    assert cands[0].head_lemma == "tension"


def test_fixture_corpus_relais_de_tension_frequency():
    corpus = load_corpus(data_path("corpus"))
    lexicon = load_lexicon(data_path("lexicon.tsv"))
    patterns = load_patterns(data_path("patterns.txt"))
    tokens = [annotate(d, lexicon) for d in corpus]
    by_label = {c.label: c for c in extract_candidates(tokens, patterns)}
    assert by_label["relais de tension"].frequency == 3


# --- invariants -----------------------------------------------------------


def fixture_extraction():
    corpus = load_corpus(data_path("corpus"))
    lexicon = load_lexicon(data_path("lexicon.tsv"))
    patterns = load_patterns(data_path("patterns.txt"))
    tokens = [annotate(d, lexicon) for d in corpus]
    return corpus, lexicon, patterns, tokens


def test_determinism_byte_identical():
    _, _, patterns, tokens = fixture_extraction()
    first = candidates_to_json(extract_candidates(tokens, patterns))
    second = candidates_to_json(extract_candidates(list(tokens), patterns))
    assert first == second


def test_merging_soundness_against_regex_rescan():
    corpus, lexicon, patterns, tokens = fixture_extraction()
    cands = extract_candidates(tokens, patterns)
    total = sum(c.frequency for c in cands)
    expected = sum(
        regex_match_count(annotate_per_token(doc, lexicon), patterns) for doc in corpus
    )
    assert total == expected


def regex_spans(doc, patterns):
    """(pattern, start, end) token spans of ``extract_candidates``'s scan:
    ``_compile``'s regex over the document's tag codes."""
    regex, groups = _compile(tuple(patterns))
    return [(groups[m.lastindex][0], *m.span()) for m in regex.finditer(doc.tags)]


def test_match_spans_never_overlap():
    _, _, patterns, tokens = fixture_extraction()
    for doc in tokens:
        spans = []
        for pattern, start, end in regex_spans(doc, patterns):
            assert doc.tags[start:end] == "".join(TAG_CODES[pos] for pos in pattern.sequence)
            spans.append((start, end))
        assert spans == sorted(spans)
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert e1 <= s2


def test_head_is_a_noun_of_the_candidate():
    _, _, patterns, tokens = fixture_extraction()
    for c in extract_candidates(tokens, patterns):
        assert c.head_lemma in c.lemmas


def test_candidates_json_roundtrip():
    _, _, patterns, tokens = fixture_extraction()
    cands = extract_candidates(tokens, patterns)
    again = candidates_from_json(candidates_to_json(cands))
    assert [(c.lemmas, c.head_lemma, c.occurrences) for c in again] == [
        (c.lemmas, c.head_lemma, c.occurrences) for c in cands
    ]


# --- the columnar front end against the per-token one ---------------------


def per_token_spans(tokens, patterns):
    """(pattern, start, end) token spans of the per-token scan."""
    index = {t.offset: i for i, t in enumerate(tokens)}
    return [
        (m.pattern, index[m.tokens[0].offset], index[m.tokens[0].offset] + len(m.tokens))
        for m in pattern_matches_per_token(tokens, patterns)
    ]


def assert_front_ends_agree(docs, lexicon, patterns):
    """Columns, spans, candidates and copula relations of both front ends
    agree; returns the candidates and relations."""
    per_token = [annotate_per_token(doc, lexicon) for doc in docs]
    columns = [annotate(doc, lexicon) for doc in docs]
    for tokens, doc in zip(per_token, columns):
        assert doc.lemmas == tuple(t.lemma for t in tokens)
        assert doc.tags == "".join(TAG_CODES[t.pos] for t in tokens)
        assert list(doc.offsets) == [t.offset for t in tokens]
        assert doc.copula == bytes(t.surface.lower() in ("est", "sont") for t in tokens)
        assert regex_spans(doc, patterns) == per_token_spans(tokens, patterns)
    flat = [t for tokens in per_token for t in tokens]
    candidates = extract_candidates_per_token(flat, patterns)
    got = extract_candidates(columns, patterns)
    assert candidates_to_json(got) == candidates_to_json(candidates)
    labels = [c.label for c in candidates]
    relations = copula_relations_per_token(flat, labels)
    assert copula_relations(columns, labels) == relations
    return flat, candidates, relations


def test_front_end_matches_per_token_oracle_on_fixture():
    corpus, lexicon, patterns, _ = fixture_extraction()
    _, candidates, relations = assert_front_ends_agree(corpus, lexicon, patterns)
    assert candidates and relations


def test_front_end_matches_per_token_oracle_on_random_corpora():
    rng = random.Random(19950301)
    seen = dict.fromkeys(("elided", "empty doc", "head=last", "relations", "tie"), 0)
    for _ in range(600):
        docs, lexicon, patterns = random_front_end_case(rng)
        tokens, candidates, relations = assert_front_ends_agree(docs, lexicon, patterns)
        lengths = [len(p.sequence) for p in patterns]
        seen["elided"] += any(t.surface.endswith(("'", "’")) for t in tokens)
        seen["empty doc"] += any(not annotate(doc, lexicon) for doc in docs)
        seen["head=last"] += any(p.head_position is HeadPosition.LAST_NOUN for p in patterns)
        seen["relations"] += bool(relations)
        seen["tie"] += len(set(lengths)) < len(lengths)
    assert min(seen.values()) >= 100, seen


def test_token_store_holds_at_most_40_bytes_per_token():
    rng = random.Random(1995)
    corpus = [random_document(rng, f"d{i:04}", rng.randint(15, 35)) for i in range(500)]
    lexicon = load_lexicon(data_path("lexicon.tsv"))
    tokens = sum(len(annotate(doc, lexicon)) for doc in corpus)  # warms the lexicon memo
    assert tokens >= 10_000
    tracemalloc.start()
    try:
        held = [annotate(doc, lexicon) for doc in corpus]
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, held)) == tokens
    assert size / tokens <= 40


# --- config files ---------------------------------------------------------


def test_load_patterns_with_head_option(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("# comment\nnp: NOUN PREP NOUN head=last\n", encoding="utf-8")
    patterns = load_patterns(path)
    assert patterns[0].head_position is HeadPosition.LAST_NOUN


def test_load_patterns_rejects_unknown_pos(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("x: NOUN XYZ\n", encoding="utf-8")
    with pytest.raises(BadPatternError):
        load_patterns(path)


def test_lexicon_lookup_case_insensitive():
    lexicon = load_lexicon(data_path("lexicon.tsv"))
    assert lexicon.lookup("Relais").lemma == "relais"
    assert lexicon.lookup("RELAIS").pos is N


def test_load_lexicon_reports_empty_surface(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("relais\trelais\tNOUN\n \trelais\tN\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="line 2: empty surface form"):
        load_lexicon(path)


def test_load_lexicon_reports_empty_lemma(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("relais\trelais\tNOUN\ntension\t \tNOUN\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="line 2: empty lemma"):
        load_lexicon(path)


def lexicon_outcome(load, path):
    """The entries ``load`` reads from ``path``, or its ``ConfigError`` text."""
    try:
        lexicon = load(path)
    except ConfigError as exc:
        return str(exc)
    return [(key, e.surface, e.lemma, e.pos) for key, e in lexicon._entries.items()]


#: A lexicon line of each kind the loader reads or refuses.
LEXICON_LINE_KINDS = {
    "2 columns": "relais\trelais",
    "4 columns": "relais\trelais\tNOUN\tx",
    "empty surface": " \trelais\tNOUN",
    "empty lemma": "relais\t\tNOUN",
    "unknown tag": "relais\trelais\tNOM",
    "lower-case tag": "relais\trelais\tnoun",
    "padded columns": " relais \t relais\u00a0\t ADJ ",
}


@pytest.mark.parametrize("kind", sorted(LEXICON_LINE_KINDS))
def test_load_lexicon_reads_each_line_kind_as_the_enum_loader_did(tmp_path, kind):
    path = tmp_path / "lex.tsv"
    path.write_text(f"tension\ttension\tNOUN\n{LEXICON_LINE_KINDS[kind]}\n", encoding="utf-8")
    assert lexicon_outcome(load_lexicon, path) == lexicon_outcome(load_lexicon_oracle, path)


_LEXICON_WORDS = ("relais", "Relais", "tension", "é", "e\u0301", "l'", "ß", " seuil", "à\u00a0")
_LEXICON_TAGS = (*(pos.value for pos in POS), "noun", "Adj", " prep ", "det\u00a0", "oThEr")


def test_load_lexicon_matches_the_enum_loader_on_random_lexicons(tmp_path):
    """Random lexicons, half of them with one line of a ``LEXICON_LINE_KINDS``
    kind among well-formed ones."""
    rng = random.Random(20101030)
    path = tmp_path / "lex.tsv"
    refused = 0
    for _ in range(300):
        lines = ["# surface, lemma, tag", ""] + [
            "\t".join((rng.choice(_LEXICON_WORDS) + rng.choice(_LEXICON_WORDS),
                       rng.choice(_LEXICON_WORDS), rng.choice(_LEXICON_TAGS)))
            for _ in range(rng.randint(1, 12))
        ]
        if rng.random() < 0.5:
            lines.insert(rng.randint(0, len(lines)), rng.choice(list(LEXICON_LINE_KINDS.values())))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        outcome = lexicon_outcome(load_lexicon, path)
        assert outcome == lexicon_outcome(load_lexicon_oracle, path), lines
        refused += isinstance(outcome, str)
    assert 60 <= refused <= 150, refused
