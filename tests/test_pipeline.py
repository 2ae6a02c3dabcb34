from __future__ import annotations

import builtins
import copy
import errno
import hashlib
import itertools
import json
import os
import random
import shutil
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from genutil import json_text_oracle, random_json_payload, read_corpus_files_oracle
from ontoterm import align, corpus as corpus_module, okmodel, pipeline
from ontoterm.cli import main
from ontoterm.corpus import load_corpus
from ontoterm.errors import ConfigError, InconsistentOntologyError, json_text
from ontoterm.fixtures import data_path
from ontoterm.lexnet import LexNet, lexnet_to_json
from ontoterm.pipeline import RACY_NS, STAGES, load_config, parse_config, run_pipeline
from ontoterm.retrieval import doc_index_text, ok_side_text

EXPECTED_ARTIFACTS = {
    "candidates.json",
    "lexnet.json",
    "lexnet_validated.json",
    "taxonomy.json",
    "ok_report.json",
    "alignment.json",
    "doc_index.json",
    "ontology.owl",
}


def write_config(tmp_path: Path, **overrides) -> Path:
    data = data_path()
    values = {
        "corpus": str(data / "corpus"),
        "lexicon": str(data / "lexicon.tsv"),
        "patterns": str(data / "patterns.txt"),
        "dsl": str(data / "relais.dsl"),
        "decisions": str(data / "decisions.txt"),
        "stopwords": str(data / "stopwords.txt"),
        "output": str(tmp_path / "out"),
    }
    values.update(overrides)
    lines = [f'{key} = "{value}"' for key, value in values.items()]
    config = tmp_path / "config.toml"
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return config


@pytest.fixture
def racy_clock(monkeypatch):
    """Dates each recorded hash a few ns after the epoch, each later than
    the last, so every input file is racily clean and a rerun reads and
    hashes it again."""
    monkeypatch.setattr(pipeline, "_now_ns", itertools.count().__next__)


@pytest.fixture
def settled_clock(monkeypatch):
    """Dates every recorded hash an hour ahead, so each input file changed
    more than ``RACY_NS`` before its hash and a rerun trusts unchanged stat
    data."""
    monkeypatch.setattr(pipeline, "_now_ns", lambda: time.time_ns() + 3600 * 10**9)


# --- config -------------------------------------------------------------------


def test_config_missing_key_names_it(tmp_path):
    config = tmp_path / "c.toml"
    config.write_text('corpus = "corpus"\n', encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_config(config)
    assert str(exc.value) == f"{config}: missing required key 'lexicon'"


def test_config_relative_paths_resolve_against_config_dir(tmp_path):
    text = (
        'corpus = "corpus"\nlexicon = "lex.tsv"\npatterns = "p.txt"\ndsl = "o.dsl"\n'
        'decisions = "d.txt"\nstopwords = "s.txt"\noutput = "out"\n'
    )
    config = parse_config(text, tmp_path)
    assert config.corpus == tmp_path / "corpus"
    assert config.output == tmp_path / "out"


def test_config_rejects_bad_export_format(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(
            "\n".join(
                f'{k} = "x"'
                for k in ("corpus", "lexicon", "patterns", "dsl", "decisions", "stopwords", "output")
            )
            + '\nexport_format = "xml"\n',
            tmp_path,
        )


@pytest.mark.parametrize("value", ['""', '"  "', '" \t"'])
@pytest.mark.parametrize("key", ["output", "synonyms", "corpus"])
def test_config_refuses_an_empty_path_naming_its_key_and_line(tmp_path, capsys, key, value):
    """An empty path would resolve to the config's own directory: the run
    would write its artifacts beside the config, or read a directory as a
    file."""
    config = write_config(tmp_path)  # seven lines
    lines = config.read_text(encoding="utf-8").splitlines()
    lines = [line for line in lines if not line.startswith(f"{key} =")] + [f"{key} = {value}"]
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    line = len(lines)
    with pytest.raises(ConfigError) as exc:
        load_config(config)
    assert str(exc.value) == f"{config}: line {line}: empty path for key {key!r}"
    assert main(["run", "--config", str(config)]) == 1
    assert capsys.readouterr().err == (
        f"ontoterm: E_CONFIG: {config}: line {line}: empty path for key {key!r}\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.toml"]


def test_config_bad_line(tmp_path):
    with pytest.raises(ConfigError):
        parse_config("corpus\n", tmp_path)


def test_config_unknown_key_is_exit_1_naming_it_and_its_line(tmp_path, capsys):
    config = write_config(tmp_path)  # seven lines
    with config.open("a", encoding="utf-8") as fh:
        fh.write('synonym = "syn.txt"\n')
    with pytest.raises(ConfigError) as exc:
        load_config(config)
    assert str(exc.value) == f"{config}: line 8: unknown key 'synonym'"
    assert main(["run", "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"ontoterm: E_CONFIG: {config}: line 8: unknown key 'synonym'\n"
    assert not (tmp_path / "out").exists()


# --- pipeline -----------------------------------------------------------------


def test_pipeline_produces_eight_artifacts_and_manifest(tmp_path):
    config = load_config(write_config(tmp_path))
    result = run_pipeline(config)
    out = tmp_path / "out"
    files = {p.name for p in out.iterdir()}
    assert files == EXPECTED_ARTIFACTS | {"manifest.json"}
    assert set(result.stages) == set(STAGES)
    assert len(result.stages) == 8


def test_pipeline_rerun_hits_cache_and_is_byte_identical(tmp_path):
    config = load_config(write_config(tmp_path))
    run_pipeline(config)
    out = tmp_path / "out"
    before = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
    result = run_pipeline(config)
    assert all(outcome.cache_hit for outcome in result.stages.values())
    after = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
    assert before == after
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert all(stage["cache_hit"] for stage in manifest["stages"].values())


#: sha256 of each artifact of the bundled relay fixture.  A change that
#: alters an artifact's bytes updates its entry here and says why.
FIXTURE_SHA256 = {
    "alignment.json": "ce8263ef214af3de1604d3e6bed7618a047858b57a5856abd49893eb33743e95",
    "candidates.json": "7c9136962d014e396b5d33c5010a58b56730f585169f6e49bf4d4849f700b77e",
    "doc_index.json": "be0fbc70e65509d449bbe0adcd2ff5dce6772488876099e5bb26602844baf055",
    "lexnet.json": "cdc517ef1592b43d74304aac9ebf96f035aa226fa22ec73f0e67439388b41c5e",
    "lexnet_validated.json": "831e68b4deca10431268176259ed918334c0add656c67e9c992b060b70db824f",
    "ok_report.json": "c3d1310394413aaa50ae851b97f5e5a33d2b468e8cd1e54d76bac120d938cf48",
    "ontology.owl": "856a18a08f70588e14089df64a4199e46d405f5cf14a1dbf3a03d3418d28a63d",
    "taxonomy.json": "c35feb56c240fdb792917456864f6552d41b19b3fb5871fb1cda85049f445f74",
}


def test_pipeline_fixture_artifacts_are_byte_identical_to_the_recorded_ones(tmp_path):
    result = run_pipeline(load_config(write_config(tmp_path)))
    assert {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in result.artifacts
    } == FIXTURE_SHA256


def test_a_config_and_dsl_saved_with_a_byte_order_mark_run_like_the_fixture(tmp_path, capsys):
    """A leading U+FEFF is no part of a line format's first line: the run
    writes the fixture's artifacts, and ok-check passes the DSL."""
    dsl = tmp_path / "relais.dsl"
    dsl.write_bytes(b"\xef\xbb\xbf" + data_path("relais.dsl").read_bytes())
    config = write_config(tmp_path, dsl=str(dsl))
    config.write_bytes(b"\xef\xbb\xbf# saved with a byte-order mark\n" + config.read_bytes())
    assert main(["ok-check", "--dsl", str(dsl)]) == 0
    assert main(["run", "--config", str(config)]) == 0
    capsys.readouterr()
    assert {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (tmp_path / "out").iterdir() if path.name != "manifest.json"
    } == FIXTURE_SHA256


#: sha256 of what ``query`` (on each structure) and ``compare-recall`` print
#: on the fixture's artifacts, by (command, concept label, format).
FIXTURE_READ_SHA256 = {
    ("query-ok", "relais à seuil", "table"): "8bfc3c50bb72557b8beb655ebc9f31d5d3e067a50281d94be8e917fe5ef6d59d",
    ("query-ok", "relais à seuil", "json"): "eba3a7503d84c3c703c0794d8757c2e30366177ff0598984a87a6639e96d4742",
    ("query-projected", "relais à seuil", "table"): "6dc38cda4fa2fc4734bc4bca21638db074dd298f7e67e7ce96fe4b685d699af4",
    ("query-projected", "relais à seuil", "json"): "3363e874d454e4d6f743a78957a3a111ec1918091885d330ff53ce72251b6c29",
    ("compare-recall", "relais à seuil", "table"): "db089f68050a909acb784e3c6de18ef83f7ae367713e3424fef3fb4f7599583a",
    ("compare-recall", "relais à seuil", "json"): "20a62eeb6b844def9b99ad910fa1b3c53a5b1d5a774c88cdc8f50a07837e89ec",
    ("query-ok", "relais", "table"): "594059f3a239ca73c723a1c844395b636594ad7b06850246eea03ab0646d36f2",
    ("query-ok", "relais", "json"): "83faa02c5aadf1c1240de9d45c3cfdfffa6a5f39914cd6b2d3931e315bd06691",
    ("query-projected", "relais", "table"): "594059f3a239ca73c723a1c844395b636594ad7b06850246eea03ab0646d36f2",
    ("query-projected", "relais", "json"): "83faa02c5aadf1c1240de9d45c3cfdfffa6a5f39914cd6b2d3931e315bd06691",
    ("compare-recall", "relais", "table"): "a72ae241655e1f17b55d05ec5a0a02afc5c34cea3d6690ae9b9e0b3c8dcc37a4",
    ("compare-recall", "relais", "json"): "b0a7144d5af1a64e96b3dd35d0ae6125c3efc63d06617b147add0830a7ec51ed",
}


def test_query_and_compare_recall_print_the_recorded_bytes_on_the_fixture(tmp_path, capsys):
    out = run_pipeline(load_config(write_config(tmp_path))).output_dir
    index, taxonomy = str(out / "doc_index.json"), str(out / "taxonomy.json")
    dsl = str(data_path("relais.dsl"))
    printed = {}
    for command, label, fmt in FIXTURE_READ_SHA256:
        argv = {
            "query-ok": ["query", "--structure", "ok", "--dsl", dsl],
            "query-projected": ["query", "--structure", "projected", "--taxonomy", taxonomy],
            "compare-recall": ["compare-recall", "--taxonomy", taxonomy, "--dsl", dsl],
        }[command] + ["--index", index, "--concept", label, "--format", fmt]
        assert main(argv) == 0
        printed[command, label, fmt] = capsys.readouterr().out
    assert printed["compare-recall", "relais", "table"] == (
        "document           projected  ok  via concept\n"
        "-----------------  ---------  --  ------------------------------------------------\n"
        "doc01_protection   x          x   relais\n"
        "doc02_technologie  x          x   relais électromagnétique\n"
        "doc03_tension      x          x   relais; relais à seuil de tension\n"
        "doc04_seuil        x          x   relais à seuil\n"
        "doc05_commutation  x          x   relais tout ou rien\n"
        "doc06_definitions  x          x   relais; relais à seuil; relais électromagnétique\n"
        "symmetric difference: []\n"
    )
    assert printed["compare-recall", "relais à seuil", "table"] == (
        "document           projected  ok  via concept\n"
        "-----------------  ---------  --  -------------------------\n"
        "doc03_tension                 x   relais à seuil de tension\n"
        "doc04_seuil        x          x   relais à seuil\n"
        "doc06_definitions  x          x   relais à seuil\n"
        "symmetric difference: ['doc03_tension']\n"
    )
    assert {
        key: hashlib.sha256(text.encode("utf-8")).hexdigest() for key, text in printed.items()
    } == FIXTURE_READ_SHA256


def dumps_artifact(payload) -> str:
    return json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", "\u2028", "relais à «seuil»", "😀"])
    | st.text()
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_json_text_matches_json_dumps(payload):
    assert json_text(payload) == dumps_artifact(payload)


def test_json_text_encodes_non_finite_floats_like_json_dumps():
    payload = {"nan": float("nan"), "values": [float("inf"), float("-inf"), -0.0, 1e300]}
    assert json_text(payload) == dumps_artifact(payload)


def test_json_text_rejects_keys_that_are_not_strings():
    with pytest.raises(TypeError):
        json_text({1: "a"})
    # a dict shape first laid out for string keys does not vouch for another
    for payload in ([{"a": 1}, {1: "a"}], [{"a": 1}, {"a": 2, 1: "a"}], [{"a": {1: "a"}}, {"a": 1}]):
        with pytest.raises(TypeError):
            json_text(payload)


def test_json_text_matches_its_oracle_and_json_dumps_on_same_shape_rows():
    """Rows of a few key sets in shuffled insertion orders, one key set at
    several depths, escaped and non-ASCII keys, empty dicts: each dict
    shape's layout must hold at every depth and for every key order."""
    rng = random.Random(20100301)
    rows = 0
    for _ in range(300):
        payload = random_json_payload(rng)
        text = json_text(payload)
        assert text == json_text_oracle(payload) == dumps_artifact(payload), payload
        for depth in (1, 3):
            assert json_text(payload, depth) == json_text_oracle(payload, depth), (payload, depth)
        rows += text.count("{\n")
    assert rows > 10000  # enough dicts that most reuse a layout


def test_json_text_reencodes_every_fixture_artifact(tmp_path):
    result = run_pipeline(load_config(write_config(tmp_path)))
    paths = [p for p in result.artifacts if p.suffix == ".json"]
    paths.append(result.output_dir / "manifest.json")
    assert len(paths) == 8
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert json_text(json.loads(text)) == text, path.name


def check_doc_index_frame(ok, projected) -> None:
    """The frame of two depth-1 renders is the two sides' ``json_text``, and
    ``ok_side_text`` splits the ``ok`` side out again; a text cut short of
    the ``projected`` head, or without the ``ok`` head, has no ``ok`` side."""
    side, projected_side = json_text(ok, 1), json_text(projected, 1)
    text = doc_index_text(side, projected_side)
    assert text == json_text({"ok": ok, "projected": projected})
    assert ok_side_text(text) == side
    projected_at = len(text) - len(projected_side) - len("\n}\n")
    assert ok_side_text(text[:projected_at - 1]) is None
    assert ok_side_text(text[1:]) is None


#: Text of the doc index's frame, for the strings and keys of a side.
FRAME_TEXT = st.sampled_from([',\n  "projected": ', '"projected": ', "projected", ",\n  ", "\n"])
FRAME_VALUES = st.recursive(
    JSON_SCALARS | FRAME_TEXT,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=6) | FRAME_TEXT, inner, max_size=4)
    ),
    max_leaves=24,
)


@settings(max_examples=60, deadline=None)
@given(JSON_VALUES | FRAME_VALUES, JSON_VALUES | FRAME_VALUES)
def test_the_doc_index_frame_of_two_depth_one_renders_is_their_json_text(ok, projected):
    check_doc_index_frame(ok, projected)


#: ``ok`` sides whose strings hold the ``projected`` head, or whose
#: ``"projected"`` keys sit one, two or more levels deep.
FRAME_IMPOSTORS = {
    "head-in-a-string": {"unannotated_docs": [',\n  "projected": ']},
    "head-as-a-key": {',\n  "projected": ': {"projected": []}},
    "head-as-the-side": ',\n  "projected": {}\n}\n',
    "key-one-level-deep": {"projected": {"annotations": []}},
    "key-two-levels-deep": {"annotations": [{"projected": "relais"}]},
    "key-three-levels-deep": {"a": {"b": {"projected": {"projected": 1}}}},
}


@pytest.mark.parametrize("case", FRAME_IMPOSTORS)
def test_the_first_projected_head_ends_the_ok_side(case):
    check_doc_index_frame(FRAME_IMPOSTORS[case], {"projected": FRAME_IMPOSTORS[case]})


def test_the_fixture_doc_index_is_its_two_sides_framed(tmp_path):
    text = (run_pipeline(load_config(write_config(tmp_path))).output_dir
            / "doc_index.json").read_text(encoding="utf-8")
    payload = json.loads(text)
    assert doc_index_text(json_text(payload["ok"], 1), json_text(payload["projected"], 1)) == text
    check_doc_index_frame(payload["ok"], payload["projected"])


def test_pipeline_invalidates_downstream_on_input_change(tmp_path):
    data = data_path()
    decisions = tmp_path / "decisions.txt"
    shutil.copy(data / "decisions.txt", decisions)
    config = load_config(write_config(tmp_path, decisions=str(decisions)))
    run_pipeline(config)
    decisions.write_text(
        decisions.read_text(encoding="utf-8") + '\nreject term "tension"\n', encoding="utf-8"
    )
    result = run_pipeline(config)
    assert result.stages["extract"].cache_hit
    assert result.stages["net"].cache_hit
    assert not result.stages["validate"].cache_hit
    assert not result.stages["project"].cache_hit


def test_pipeline_force_reruns_everything(tmp_path):
    config = load_config(write_config(tmp_path))
    run_pipeline(config)
    result = run_pipeline(config, force=True)
    assert not any(outcome.cache_hit for outcome in result.stages.values())


@pytest.mark.parametrize("force", [False, True])
@pytest.mark.parametrize(
    "manifest",
    [b'{"stages": {"extract"', b"\xff\xfe\x00", b"[]", b'{"stages": []}', b'{"stages": {"net": 1}}',
     pytest.param(b'{"stages": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", id="deeply-nested")],
)
def test_pipeline_unreadable_manifest_is_a_cold_cache(tmp_path, manifest, force):
    config = load_config(write_config(tmp_path))
    run_pipeline(config)
    out = tmp_path / "out"
    before = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
    (out / "manifest.json").write_bytes(manifest)
    result = run_pipeline(config, force=force)
    assert not any(outcome.cache_hit for outcome in result.stages.values())
    assert before == {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
    assert all(run_pipeline(config).stages[stage].cache_hit for stage in STAGES)


def test_pipeline_kif_export(tmp_path):
    config = load_config(write_config(tmp_path, export_format="kif"))
    run_pipeline(config)
    assert (tmp_path / "out" / "ontology.kif").exists()


def test_pipeline_stops_on_inconsistent_ontology(tmp_path):
    bad_dsl = tmp_path / "bad.dsl"
    bad_dsl.write_text(
        "axis a values x, y\nconcept r root\n"
        "concept c1 genus r diff a=x\nconcept c2 genus r diff a=x\n",
        encoding="utf-8",
    )
    config = load_config(write_config(tmp_path, dsl=str(bad_dsl)))
    with pytest.raises(InconsistentOntologyError):
        run_pipeline(config)
    out = tmp_path / "out"
    assert (out / "ok_report.json").exists()
    assert not (out / "alignment.json").exists()
    report = json.loads((out / "ok_report.json").read_text(encoding="utf-8"))
    assert not report["consistent"]


def artifact_bytes(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}


# "align" renders while index hits; "index" renders while align hits
@pytest.mark.parametrize("stage", ["extract", "align", "index"])
def test_pipeline_renders_a_corrupted_artifact_again(tmp_path, stage):
    config = load_config(write_config(tmp_path))
    artifact = config.output / run_pipeline(config).stages[stage].artifact
    before = artifact_bytes(config.output)
    artifact.write_bytes(artifact.read_bytes()[: len(before[artifact.name]) // 2])
    result = run_pipeline(config)
    assert {name for name, outcome in result.stages.items() if not outcome.cache_hit} == {stage}
    assert artifact_bytes(config.output) == before
    manifest = json.loads((config.output / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["stages"][stage]["sha256"] == result.stages[stage].sha256


def test_pipeline_decisions_edit_renders_exactly_its_downstream(tmp_path):
    decisions = tmp_path / "decisions.txt"
    shutil.copy(data_path("decisions.txt"), decisions)
    config = load_config(write_config(tmp_path, decisions=str(decisions)))
    run_pipeline(config)
    with decisions.open("a", encoding="utf-8") as f:
        f.write('reject term "relais tout ou rien"\n')
    result = run_pipeline(config)
    misses = {name for name, outcome in result.stages.items() if not outcome.cache_hit}
    assert misses == {"validate", "project", "align", "index"}


class RecordingSources(dict):
    """A run's sources that record each name looked up."""

    def __init__(self, sources) -> None:
        super().__init__(sources)
        self.read: set[str] = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)

    def get(self, name, default=None):
        self.read.add(name)
        return super().get(name, default)


class RecordingValues(pipeline.RunValues):
    """Run values that record each value looked up, by a render or a loader."""

    def __init__(self, sources) -> None:
        super().__init__(RecordingSources(sources))
        self.touched: set[str] = set()

    def __getitem__(self, name):
        self.touched.add(name)
        return super().__getitem__(name)


def test_each_stage_fingerprint_covers_what_its_render_reads(tmp_path):
    """Each stage renders from fresh run values over a cold run's sources,
    so every value it reads goes through its loader.  The sources it reads
    are its ``files``, its ``settings`` and the artifacts holding values in
    its ``reads``, the artifacts its fingerprint covers; and it reads every
    value in its ``reads``."""
    config = load_config(project_config(tmp_path))
    run_pipeline(config)
    artifacts = {s.value: config.output / s.artifact for s in pipeline.GRAPH if s.value is not None}
    for stage in pipeline.GRAPH:
        values = RecordingValues({**vars(config), **artifacts})
        getattr(pipeline, "render_" + stage.name.replace("-", "_"))(values)
        covered = {*stage.files, *stage.settings, *(artifacts.keys() & set(stage.reads))}
        assert values.sources.read <= covered, (stage.name, values.sources.read - covered)
        assert set(stage.reads) <= values.touched, (stage.name, set(stage.reads) - values.touched)


def test_pipeline_drops_tokens_once_net_has_used_them(tmp_path, monkeypatch):
    config = load_config(write_config(tmp_path))
    held = {}
    render_validate = pipeline.render_validate

    def spy(values):
        held.update(dict.fromkeys(values))
        return render_validate(values)

    monkeypatch.setattr(pipeline, "render_validate", spy)
    run_pipeline(config)
    assert "network" in held
    assert "tokens" not in held


@pytest.mark.parametrize("clock", ["settled_clock", "racy_clock"])
def test_pipeline_drops_the_corpus_bytes_once_extract_is_done(tmp_path, monkeypatch, request, clock):
    """A cold run, and a decisions edit whose racy corpus is read for its
    hash, hold no document's bytes in any stage after extract."""
    request.getfixturevalue(clock)
    decisions = tmp_path / "decisions.txt"
    shutil.copy(data_path("decisions.txt"), decisions)
    config = load_config(write_config(tmp_path, decisions=str(decisions)))
    held: dict[str, set[str]] = {}

    def spy(stage, render):
        def wrapped(values):
            held[stage] = set(values)
            return render(values)

        monkeypatch.setattr(pipeline, "render_" + stage.replace("-", "_"), wrapped)

    for stage in STAGES[1:]:
        spy(stage, getattr(pipeline, "render_" + stage.replace("-", "_")))
    for run in ("cold", "decisions edit"):
        if run == "decisions edit":
            reject(decisions)
        held.clear()
        run_pipeline(config)
        assert "index" in held, run
        assert not any({"corpus_files", "corpus"} & names for names in held.values()), run


def spy_on_run(monkeypatch, out: Path, corpus: Path | None = None) -> Counter:
    """Count corpus reads and loads, annotated documents, hashed paths,
    decoded artifacts, files read under ``out`` (as text, or as bytes
    through ``Path.read_bytes`` or ``open``), documents decoded, keyed
    ("decoded", file name), and, keyed ("corpus", relative path), opens and
    reads of files under ``corpus`` while the pipeline runs."""
    calls: Counter = Counter()

    def spy(name, key):
        inner = getattr(pipeline, name)

        def wrapped(*args, **kwargs):
            calls[key(*args)] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, wrapped)

    def count_corpus_read(path: Path) -> None:
        if corpus is not None and corpus in path.parents:
            calls[("corpus", str(path.relative_to(corpus)))] += 1

    spy("read_corpus_files", lambda *a: "read_corpus_files")
    spy("load_corpus", lambda *a: "load_corpus")
    spy("_hash_files", lambda files: "hash_files")
    spy("annotate", lambda doc, lexicon: ("annotate", doc.id))
    spy("_hash_path", lambda path: ("hash", str(path)))
    for decoder in ("candidates_from_json", "lexnet_from_json", "taxonomy_from_json"):
        spy(decoder, lambda text: "decode")
    for method in ("read_text", "read_bytes"):
        inner = getattr(Path, method)

        def read(path, *args, inner=inner, method=method, **kwargs):
            if path.parent == out:
                calls[(method, path.name)] += 1
            count_corpus_read(path)
            return inner(path, *args, **kwargs)

        monkeypatch.setattr(Path, method, read)
    builtin_open = builtins.open

    def open_(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            path = Path(file).absolute()
            if path.parent == out and mode == "rb":
                calls[("read_bytes", path.name)] += 1
            count_corpus_read(path)
        return builtin_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", open_)
    decode_text = corpus_module.decode_text

    def decode_document(data, path):
        calls[("decoded", os.path.basename(path))] += 1
        return decode_text(data, path)

    monkeypatch.setattr(corpus_module, "decode_text", decode_document)
    return calls


def documents_decoded(calls: Counter) -> dict[str, int]:
    return {key[1]: n for key, n in calls.items() if key[0] == "decoded"}


def hashed(calls: Counter) -> dict[str, int]:
    return {key[1]: n for key, n in calls.items() if key[0] == "hash"}


def corpus_reads(calls: Counter) -> dict[str, int]:
    return {key[1]: n for key, n in calls.items() if key[0] == "corpus"}


def corpus_with_skipped_files(tmp_path: Path) -> tuple[Path, list[str]]:
    """A copy of the fixture corpus plus files that are no documents, and
    the names of its documents."""
    corpus = tmp_path / "corpus"
    shutil.copytree(data_path("corpus"), corpus)
    documents = sorted(p.name for p in corpus.iterdir())
    (corpus / "notes").mkdir()
    (corpus / "notes" / "nested.txt").write_text("relais imbriqué\n", encoding="utf-8")
    (corpus / "README").write_text("pas un document\n", encoding="utf-8")
    return corpus, documents


def test_cold_run_loads_and_hashes_each_input_once_and_reads_nothing_back(tmp_path, monkeypatch):
    corpus, files = corpus_with_skipped_files(tmp_path)
    config = load_config(write_config(tmp_path, corpus=str(corpus)))
    docs = [doc.id for doc in load_corpus(data_path("corpus"))]
    calls = spy_on_run(monkeypatch, config.output, corpus)
    run_pipeline(config)
    assert calls["read_corpus_files"] == 1
    assert calls["load_corpus"] == 1
    assert calls["hash_files"] == 1
    assert corpus_reads(calls) == dict.fromkeys(files, 1)
    assert documents_decoded(calls) == dict.fromkeys(files, 1)  # the index ids decode none
    assert {doc: calls[("annotate", doc)] for doc in docs} == {doc: 1 for doc in docs}
    assert str(config.corpus) not in hashed(calls)
    assert set(hashed(calls).values()) == {1}
    assert not any(Path(path).parent == config.output for path in hashed(calls))
    assert calls["decode"] == 0
    assert {key for key in calls if key[0] in ("read_text", "read_bytes")} == {
        ("read_text", "manifest.json")
    }


@pytest.mark.parametrize("edit", ["warm", "decisions-edit"])
def test_warm_and_edit_runs_read_each_corpus_file_once_and_load_no_documents(
    tmp_path, monkeypatch, racy_clock, edit
):
    corpus, files = corpus_with_skipped_files(tmp_path)
    decisions = tmp_path / "decisions.txt"
    shutil.copy(data_path("decisions.txt"), decisions)
    config = load_config(write_config(tmp_path, corpus=str(corpus), decisions=str(decisions)))
    run_pipeline(config)
    if edit == "decisions-edit":
        with decisions.open("a", encoding="utf-8") as f:
            f.write('reject term "relais tout ou rien"\n')
    calls = spy_on_run(monkeypatch, config.output, corpus)
    result = run_pipeline(config)
    assert result.stages["index"].cache_hit == (edit == "warm")
    assert calls["read_corpus_files"] == 1
    assert calls["load_corpus"] == 0
    assert corpus_reads(calls) == dict.fromkeys(files, 1)
    # the racy corpus is read for its hash only: the index's document ids
    # come from the extract stage's manifest record
    assert documents_decoded(calls) == {}


@pytest.mark.parametrize("edit", ["cold", "decisions-edit"])
def test_a_run_aligns_each_label_once(tmp_path, monkeypatch, edit):
    decisions = tmp_path / "decisions.txt"
    shutil.copy(data_path("decisions.txt"), decisions)
    config = load_config(write_config(tmp_path, decisions=str(decisions)))
    if edit == "decisions-edit":
        run_pipeline(config)
        with decisions.open("a", encoding="utf-8") as f:
            f.write('reject term "relais tout ou rien"\n')
    aligned: Counter = Counter()
    resolve = align._resolve

    def counted(term, *args):
        aligned[term] += 1
        return resolve(term, *args)

    monkeypatch.setattr(align, "_resolve", counted)
    result = run_pipeline(config)
    assert not result.stages["align"].cache_hit and not result.stages["index"].cache_hit
    out = config.output
    labels = {row["label"] for row in json.loads((out / "candidates.json").read_text("utf-8"))}
    terms = {row["term"] for row in json.loads((out / "alignment.json").read_text("utf-8"))[
        "alignments"]}
    assert terms and terms < labels
    # a decisions edit keeps the doc index's ok side, so only align aligns
    assert aligned == Counter(labels if edit == "cold" else terms)


@pytest.mark.parametrize("kind, parses, checks", [
    ("cold", 4, 2), ("decisions-edit", 1, 0), ("warm", 0, 0),
])
def test_the_ontology_kernels_run_a_fixed_number_of_times_per_run_kind(
    tmp_path, monkeypatch, kind, parses, checks
):
    """``load_dsl`` once per DSL stage that renders (ok-check, align, index,
    export), except in an index that keeps its ``ok`` side, as a decisions
    edit's does; ``check_consistency`` once in ok-check and once in
    export's ``require_consistent``.  The four parses of a cold run are the
    ones the benchmark's self-test pins (``okmodel.parses == 4``): a change
    that parses once per run changes both."""
    decisions = tmp_path / "decisions.txt"
    shutil.copy(data_path("decisions.txt"), decisions)
    config = load_config(write_config(tmp_path, decisions=str(decisions)))
    if kind != "cold":
        run_pipeline(config)
    if kind == "decisions-edit":
        with decisions.open("a", encoding="utf-8") as f:
            f.write('reject term "relais tout ou rien"\n')
    calls: Counter = Counter()

    def counted(module, name):
        inner = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    counted(pipeline, "load_dsl")
    counted(pipeline, "check_consistency")
    counted(okmodel, "check_consistency")  # what export's ``require_consistent`` calls
    run_pipeline(config)
    assert calls == Counter(load_dsl=parses, check_consistency=checks)


def check_non_document_changes(tmp_path: Path, monkeypatch, rereads: bool) -> None:
    """Adding, editing and deleting files that are no documents keeps every
    stage a hit; each rerun reads each document once when ``rereads``, and
    none otherwise."""
    corpus, documents = corpus_with_skipped_files(tmp_path)
    odd = write_non_utf8_name(corpus, b"notes\xff.md", b"pas un document\n")
    config = load_config(write_config(tmp_path, corpus=str(corpus)))
    edits = {
        "cold": lambda: None,
        "add nested .txt": lambda: (corpus / "notes" / "more.txt").write_text("relais\n"),
        "edit nested .txt": lambda: (corpus / "notes" / "nested.txt").write_text("relais\n"),
        "edit non-.txt": lambda: (corpus / "README").write_text("relais\n"),
        "edit non-UTF-8 name": lambda: write_non_utf8_name(corpus, b"notes\xff.md", b"relais\n"),
        "add non-.txt": lambda: (corpus / "index.md").write_text("relais\n"),
        "delete non-UTF-8 name": lambda: os.unlink(odd),
        "delete non-.txt": lambda: (corpus / "README").unlink(),
        "delete subdirectory": lambda: shutil.rmtree(corpus / "notes"),
    }
    for edit, change in edits.items():
        change()
        with monkeypatch.context() as patch:
            calls = spy_on_run(patch, config.output, corpus)
            result = run_pipeline(config)
        reads = 1 if rereads or edit == "cold" else 0
        assert corpus_reads(calls) == {doc: reads for doc in documents if reads}, edit
        hits = [stage for stage, outcome in result.stages.items() if outcome.cache_hit]
        assert hits == ([] if edit == "cold" else list(STAGES)), edit


def test_a_run_opens_no_non_document_and_changes_to_them_keep_every_stage_cached(
    tmp_path, monkeypatch, racy_clock
):
    check_non_document_changes(tmp_path, monkeypatch, rereads=True)


def test_a_settled_run_opens_no_file_of_the_corpus_and_non_documents_keep_every_stage_cached(
    tmp_path, monkeypatch, settled_clock
):
    check_non_document_changes(tmp_path, monkeypatch, rereads=False)


def test_editing_a_document_or_filling_a_blank_one_reruns_the_corpus_stages(tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(data_path("corpus"), corpus)
    (corpus / "blank.txt").write_text(" \n", encoding="utf-8")
    config = load_config(write_config(tmp_path, corpus=str(corpus)))
    run_pipeline(config)
    for path in sorted(corpus.iterdir()):
        with path.open("a", encoding="utf-8") as fh:
            fh.write("xyzzy\n")  # a word outside the lexicon: no candidate changes
        result = run_pipeline(config)
        rerun = [stage for stage, outcome in result.stages.items() if not outcome.cache_hit]
        assert rerun == ["extract", "net", "index"], path.name


def test_warm_run_decodes_only_the_ok_report(tmp_path, monkeypatch):
    config = load_config(write_config(tmp_path))
    run_pipeline(config)
    calls = spy_on_run(monkeypatch, config.output)
    result = run_pipeline(config)
    assert all(outcome.cache_hit for outcome in result.stages.values())
    assert calls["load_corpus"] == 0
    assert calls["decode"] == 0
    assert set(hashed(calls).values()) == {1}
    # the ok report is decoded from the bytes its hit hashed, not read again
    assert {key[1] for key in calls if key[0] == "read_text"} == {"manifest.json"}
    assert {key[1]: n for key, n in calls.items() if key[0] == "read_bytes"} == dict.fromkeys(
        EXPECTED_ARTIFACTS, 1)


def test_an_edit_run_reads_each_artifact_once_and_encodes_no_network(tmp_path, monkeypatch):
    """A decisions edit decodes the candidates and the network from the
    bytes their hits hashed, and writes the validated network by rewriting
    the statuses of those bytes, with no ``lexnet_to_json``."""
    decisions = tmp_path / "decisions.txt"
    shutil.copy(data_path("decisions.txt"), decisions)
    config = load_config(write_config(tmp_path, decisions=str(decisions)))
    run_pipeline(config)
    reject(decisions)
    calls = spy_on_run(monkeypatch, config.output)
    encoded = Counter()
    monkeypatch.setattr(pipeline, "lexnet_to_json",
                        lambda net, inner=pipeline.lexnet_to_json: encoded.update([1]) or inner(net))
    result = run_pipeline(config)
    misses = {stage for stage, outcome in result.stages.items() if not outcome.cache_hit}
    assert misses == {"validate", "project", "align", "index"}
    assert calls["decode"] == 2 and not encoded  # candidates and network; no encode
    assert {key[1] for key in calls if key[0] == "read_text"} == {"manifest.json"}
    assert {key[1]: n for key, n in calls.items() if key[0] == "read_bytes"} == dict.fromkeys(
        ["candidates.json", "lexnet.json", "ok_report.json", "doc_index.json", "ontology.owl"], 1)
    (tmp_path / "fresh").mkdir()
    fresh = load_config(write_config(tmp_path / "fresh", decisions=str(decisions)))
    run_pipeline(fresh)
    for name in EXPECTED_ARTIFACTS:
        assert (config.output / name).read_bytes() == (fresh.output / name).read_bytes(), name


def test_validate_encodes_the_network_when_its_held_text_does_not_line_up(tmp_path):
    config = load_config(write_config(tmp_path))
    run_pipeline(config)
    text = (config.output / "lexnet.json").read_text(encoding="utf-8")
    expected = (config.output / "lexnet_validated.json").read_text(encoding="utf-8")
    values = pipeline.RunValues({**vars(config), "network": config.output / "lexnet.json"})
    network = values["network"]
    assert pipeline.render_validate(values) == expected  # nothing held: encoded
    one_row_less = lexnet_to_json(LexNet(dict(list(network.terms.items())[1:]), network.relations))
    one_line_more = text.replace("\n      ", '\n      "status": "X",\n      ', 1)
    for held in (text, one_row_less, one_line_more):
        values = pipeline.RunValues({**vars(config), "network": config.output / "lexnet.json"})
        values["network"] = network
        values.held["network"] = held.encode("utf-8")
        assert pipeline.render_validate(values) == expected


def test_the_validate_command_encodes_any_network_json_as_the_pipeline_writes_it(
    tmp_path, capsys
):
    """``ontoterm validate`` trusts no layout of its input: given the
    network in compact JSON, with its keys or rows in another order, it
    writes ``lexnet_to_json``'s bytes, the run's ``lexnet_validated.json``."""
    config = load_config(write_config(tmp_path))
    run_pipeline(config)
    text = (config.output / "lexnet.json").read_text(encoding="utf-8")
    expected = (config.output / "lexnet_validated.json").read_bytes()
    payload = json.loads(text)

    def reordered(rows):
        return [dict(reversed(row.items())) for row in reversed(rows)]

    variants = {
        "canonical": text,
        "compact": json.dumps(payload, ensure_ascii=False),
        "ascii": json.dumps(payload, indent=2),
        "reordered": json.dumps({"terms": reordered(payload["terms"]),
                                 "relations": reordered(payload["relations"])}, indent=6),
    }
    for name, variant in variants.items():
        lexnet = tmp_path / f"{name}.json"
        lexnet.write_text(variant, encoding="utf-8")
        out = tmp_path / f"{name}.validated.json"
        assert main(["validate", "--lexnet", str(lexnet), "--decisions", str(config.decisions),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == expected, name
    capsys.readouterr()


INPUTS = ("lexicon", "patterns", "dsl", "decisions", "stopwords", "synonyms")


def project_config(root: Path, output: str | Path = "out") -> Path:
    """A copy of the fixture's inputs under ``root``, plus a one-line
    ``synonyms.txt``, and a config naming them by relative paths; returns
    the config's path."""
    data = data_path()
    shutil.copytree(data / "corpus", root / "corpus")
    files = {"lexicon": "lexicon.tsv", "patterns": "patterns.txt", "dsl": "relais.dsl",
             "decisions": "decisions.txt", "stopwords": "stopwords.txt"}
    for name in files.values():
        shutil.copy(data / name, root / name)
    (root / "synonyms.txt").write_text("\n", encoding="utf-8")  # one byte: no declaration
    return write_config(root, corpus="corpus", synonyms="synonyms.txt", output=str(output), **files)


def manifest_of(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text(encoding="utf-8"))


def inputs_hashed(calls: Counter, config) -> dict[str, int]:
    """How often each non-corpus input was read and hashed, by name."""
    counts = hashed(calls)
    paths = {name: str(getattr(config, name)) for name in INPUTS}
    return {name: counts[path] for name, path in paths.items() if path in counts}


def test_a_settled_warm_run_opens_no_document_and_reads_no_input(
    tmp_path, monkeypatch, settled_clock
):
    config = load_config(project_config(tmp_path / "project", tmp_path / "out"))
    write_non_utf8_name(config.corpus, b"blank\xff.txt", b" \n")  # a document, though blank
    run_pipeline(config)
    calls = spy_on_run(monkeypatch, config.output, tmp_path / "project")
    result = run_pipeline(config)
    assert all(outcome.cache_hit for outcome in result.stages.values())
    assert calls["read_corpus_files"] == 0 and calls["hash_files"] == 0
    assert corpus_reads(calls) == {}  # no file under the project is opened or read
    assert set(hashed(calls)) == {str(config.output / name) for name in EXPECTED_ARTIFACTS}


@pytest.mark.parametrize("clock", ["settled_clock", "racy_clock"])
def test_a_warm_run_after_a_warm_run_leaves_the_manifest_unwritten(
    tmp_path, monkeypatch, request, clock
):
    """Racily clean inputs are read and hashed again, but keep the time of
    their last equal hash, so their records do not change either."""
    request.getfixturevalue(clock)
    config = load_config(project_config(tmp_path))
    run_pipeline(config)
    run_pipeline(config)
    manifest = config.output / "manifest.json"
    before = manifest.stat()
    calls = spy_on_run(monkeypatch, config.output)
    result = run_pipeline(config)
    assert all(outcome.cache_hit for outcome in result.stages.values())
    after = manifest.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert calls["read_corpus_files"] == (clock == "racy_clock")


@pytest.mark.parametrize("clock", ["settled_clock", "racy_clock"])
def test_a_warm_run_never_encodes_the_manifest(tmp_path, monkeypatch, request, clock):
    """Its records equal the last run's, as decoded, so it encodes nothing."""
    request.getfixturevalue(clock)
    config = load_config(project_config(tmp_path))
    run_pipeline(config)
    run_pipeline(config)
    encoded = []
    monkeypatch.setattr(pipeline, "json_text", lambda *args: encoded.append(args))
    result = run_pipeline(config)
    assert all(outcome.cache_hit for outcome in result.stages.values())
    assert encoded == []


def test_a_racy_input_is_read_until_a_run_finds_it_settled(tmp_path, monkeypatch):
    config = load_config(project_config(tmp_path))
    files = [path for path in tmp_path.rglob("*") if path.is_file()]
    ctime = max(path.stat().st_ctime_ns for path in files)
    now = [ctime + RACY_NS // 2]
    monkeypatch.setattr(pipeline, "_now_ns", lambda: now[0])
    run_pipeline(config)
    reads = []
    for now[0] in (ctime + RACY_NS // 2, ctime + RACY_NS + 1, ctime + RACY_NS + 2):
        with monkeypatch.context() as patch:
            calls = spy_on_run(patch, config.output)
            run_pipeline(config)
        reads.append(calls["read_corpus_files"] + len(inputs_hashed(calls, config)))
    # racy at its hash and now; racy at its hash, settled now; trusted
    assert reads == [1 + len(INPUTS), 1 + len(INPUTS), 0]


def test_force_reads_and_hashes_every_input(tmp_path, monkeypatch, capsys, settled_clock):
    config_path = project_config(tmp_path)
    config = load_config(config_path)
    run_pipeline(config)
    calls = spy_on_run(monkeypatch, config.output, tmp_path / "corpus")
    assert main(["run", "--config", str(config_path), "--force"]) == 0
    assert "8 stages, 0 cache hits" in capsys.readouterr().out
    assert calls["read_corpus_files"] == 1 and calls["hash_files"] == 1
    assert corpus_reads(calls) == {p.name: 1 for p in (tmp_path / "corpus").iterdir()}
    assert inputs_hashed(calls, config) == dict.fromkeys(INPUTS, 1)


def _set(record: str, **fields):
    return lambda manifest, config: manifest["inputs"][record].update(fields)


def _drop(record: str, field: str):
    return lambda manifest, config: manifest["inputs"][record].pop(field)


def _replace(record: str, value):
    return lambda manifest, config: manifest["inputs"].update({record: value})


def _stat_fields(manifest, config) -> None:
    """The synonyms record in the shape earlier versions wrote for an input
    file: its stat data as five fields, and no listing."""
    stat = config.synonyms.stat()
    record = manifest["inputs"]["synonyms"]
    del record["listing"]
    record.update(size=stat.st_size, mtime_ns=stat.st_mtime_ns, ctime_ns=stat.st_ctime_ns,
                  ino=stat.st_ino, dev=stat.st_dev)


MALFORMED_RECORDS = {
    "listing-true": (_set("synonyms", listing=True), {"synonyms"}),
    "listing-other-digest": (_set("synonyms", listing="0" * 64), {"synonyms"}),
    "stat-fields": (_stat_fields, {"synonyms"}),
    "listing-missing": (_drop("synonyms", "listing"), {"synonyms"}),
    "hashed-missing": (_drop("synonyms", "hashed_ns"), {"synonyms"}),
    "hashed-float": (_set("synonyms", hashed_ns=1e300), {"synonyms"}),
    "sha256-int": (_set("synonyms", sha256=5), {"synonyms"}),
    "sha256-not-hex": (_set("synonyms", sha256="x" * 64), {"synonyms"}),
    "record-list": (_replace("synonyms", []), {"synonyms"}),
    "record-null": (_replace("dsl", None), {"dsl"}),
    "corpus-listing-int": (_set("corpus", listing=5), {"corpus"}),
    "corpus-record-string": (_replace("corpus", "x"), {"corpus"}),
    "inputs-list": (lambda manifest, config: manifest.update(inputs=[]), {"corpus", *INPUTS}),
}


@pytest.mark.parametrize("case", MALFORMED_RECORDS)
def test_a_malformed_input_record_means_read_and_hash(tmp_path, monkeypatch, settled_clock, case):
    mutate, reread = MALFORMED_RECORDS[case]
    config = load_config(project_config(tmp_path))
    run_pipeline(config)
    records = manifest_of(config.output)["inputs"]
    manifest = manifest_of(config.output)
    mutate(manifest, config)
    (config.output / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    calls = spy_on_run(monkeypatch, config.output)
    result = run_pipeline(config)
    assert all(outcome.cache_hit for outcome in result.stages.values())
    assert set(inputs_hashed(calls, config)) == reread - {"corpus"}
    assert calls["read_corpus_files"] == ("corpus" in reread)
    # each record read again is written whole, with the hash and listing it had
    rewritten = manifest_of(config.output)["inputs"]
    assert set(rewritten) == set(records)
    for name, record in rewritten.items():
        if name in reread:
            assert record.pop("hashed_ns") > records[name].pop("hashed_ns")
        assert record == records[name], name


def extract_ids(out: Path) -> object:
    return manifest_of(out)["stages"]["extract"]["doc_ids"]


def oracle_ids(corpus: Path) -> list[str]:
    return [doc.id for doc in load_corpus(corpus)]


def reject(decisions: Path, term: str = "relais de tension") -> None:
    """A decisions edit that changes the projected taxonomy, so the index
    stage renders again."""
    with decisions.open("a", encoding="utf-8") as f:
        f.write(f'reject term "{term}"\n')


def test_a_settled_decisions_edit_opens_no_corpus_document(tmp_path, monkeypatch, settled_clock):
    config = load_config(project_config(tmp_path / "project", tmp_path / "out"))
    run_pipeline(config)
    reject(config.decisions)
    calls = spy_on_run(monkeypatch, config.output, config.corpus)
    result = run_pipeline(config)
    assert result.stages["extract"].cache_hit and not result.stages["index"].cache_hit
    assert calls["read_corpus_files"] == 0 and calls["hash_files"] == 0
    assert corpus_reads(calls) == {} and documents_decoded(calls) == {}
    monkeypatch.undo()
    assert extract_ids(config.output) == oracle_ids(config.corpus)
    assert artifact_bytes(config.output) == cold_artifacts(tmp_path, config)


_CORPUS_LINES = [
    line
    for path in sorted(data_path("corpus").iterdir())
    for line in path.read_text(encoding="utf-8").splitlines()
    if line.strip()
]
#: The one line of the first document of every ``random_ids_corpus``.
_ANCHOR_LINE = "Un relais de tension est un relais."
_DOCUMENT_NAMES = ("a.txt", "a-b.txt", "a b.txt", "b.txt", "doc é.txt", "z0.txt", "Z.txt")


def random_ids_corpus(rng, corpus: Path) -> None:
    """A corpus of up to seven documents whose name order and id order may
    disagree, some blank or whitespace-only, some with CRLF line ends, one
    always holding «relais de tension»; beside them files that are no
    documents (a nested ``*.txt``, ``README``, ``c.TXT``), a symlink to a
    document and one that dangles."""
    corpus.mkdir()
    names = rng.sample(_DOCUMENT_NAMES, rng.randint(1, len(_DOCUMENT_NAMES)))
    for i, name in enumerate(names):
        kind = rng.random()
        if i == 0:
            text = _ANCHOR_LINE + "\n"
        elif kind < 0.2:
            text = ""
        elif kind < 0.4:
            text = rng.choice([" ", "\n", " \r\n\t", "\r\n\r\n"])
        else:
            text = "\n".join(rng.sample(_CORPUS_LINES, rng.randint(1, 4))) + "\n"
        if rng.random() < 0.3:
            text = text.replace("\n", "\r\n")
        (corpus / name).write_bytes(text.encode("utf-8"))
    if rng.random() < 0.5:
        (corpus / "notes").mkdir()
        (corpus / "notes" / "nested.txt").write_text("relais imbriqué\n", encoding="utf-8")
    if rng.random() < 0.5:
        (corpus / "README").write_text("relais\n", encoding="utf-8")
        (corpus / "c.TXT").write_text("relais\n", encoding="utf-8")
    if rng.random() < 0.5:
        os.symlink(rng.choice(names), corpus / "link.txt")
    if rng.random() < 0.5:
        os.symlink("missing.txt", corpus / "gone.txt")


CORPUS_FEATURES = ("blank", "CRLF", "nested .txt", "README", "symlink", "dangling symlink",
                   "name order is not id order")


def corpus_features(corpus: Path) -> set[str]:
    """Which of ``CORPUS_FEATURES`` a corpus from ``random_ids_corpus`` has."""
    documents = sorted(p.name for p in corpus.iterdir() if p.suffix == ".txt" and p.is_file())
    texts = [(corpus / name).read_bytes() for name in documents]
    ids = [name[:-4] for name in documents]
    features = {
        "blank": any(not text.strip() for text in texts),
        "CRLF": any(b"\r\n" in text for text in texts),
        "nested .txt": (corpus / "notes" / "nested.txt").exists(),
        "README": (corpus / "README").exists(),
        "symlink": (corpus / "link.txt").exists(),
        "dangling symlink": (corpus / "gone.txt").is_symlink(),
        "name order is not id order": ids != sorted(ids),
    }
    return {feature for feature, present in features.items() if present}


def test_the_ids_an_edit_run_restores_are_the_corpus_ids(tmp_path, monkeypatch, settled_clock):
    """On the fixture and on 200 random corpora, through a cold run, a
    decisions edit, a warm run and a lexicon edit: the extract stage's
    record holds the ids of ``load_corpus`` after every run, and the
    decisions edit indexes those ids, on the projected side only, without
    reading the corpus."""
    rng = random.Random(20101025)
    base = load_config(project_config(tmp_path / "project"))
    decisions, lexicon = base.decisions.read_bytes(), base.lexicon.read_bytes()
    indexed: list[list[str]] = []
    index_corpus = pipeline.index_corpus

    def spy(doc_ids, *args):
        indexed.append(list(doc_ids))
        return index_corpus(doc_ids, *args)

    reads = []
    read_corpus_files = pipeline.read_corpus_files

    def read_spy(*args):
        reads.append(args[0])
        return read_corpus_files(*args)

    monkeypatch.setattr(pipeline, "index_corpus", spy)
    monkeypatch.setattr(pipeline, "read_corpus_files", read_spy)
    trees = Counter()
    for case in range(201):
        config = replace(base, output=tmp_path / f"out{case}")
        shutil.rmtree(config.corpus)
        if case == 0:
            shutil.copytree(data_path("corpus"), config.corpus)
        else:
            random_ids_corpus(rng, config.corpus)
            trees.update(corpus_features(config.corpus))
            decisions = (  # about the terms every random corpus holds
                b'validate term "relais"\nvalidate term "relais de tension"\n'
                b'validate relation hyponymy "relais de tension" "relais"\n')
        config.decisions.write_bytes(decisions)
        config.lexicon.write_bytes(lexicon)
        ids = oracle_ids(config.corpus)
        for run in ("cold", "decisions edit", "warm", "lexicon edit"):
            if run == "decisions edit":
                reject(config.decisions)
            elif run == "lexicon edit":
                with config.lexicon.open("a", encoding="utf-8") as f:
                    f.write("xyzzy\txyzzy\tNOUN\n")
            indexed.clear()
            reads.clear()
            result = run_pipeline(config)
            assert extract_ids(config.output) == ids, (case, run)
            assert result.stages["extract"].cache_hit == (run in ("decisions edit", "warm"))
            # the lexicon edit renders extract, whose candidates stay the same
            # a decisions edit keeps the ok side: it indexes the projected side only
            indexes = {"cold": [ids, ids], "decisions edit": [ids]}.get(run, [])
            assert result.stages["index"].cache_hit is not bool(indexes), (case, run)
            assert indexed == indexes, (case, run)
            assert len(reads) == (run in ("cold", "lexicon edit")), (case, run)
    assert min(trees[feature] for feature in CORPUS_FEATURES) >= 30, trees


def _drop_ids(manifest) -> None:
    del manifest["stages"]["extract"]["doc_ids"]


def _set_ids(value):
    return lambda manifest: manifest["stages"]["extract"].update(doc_ids=value)


def _edit_ids(edit):
    return lambda manifest: manifest["stages"]["extract"].update(
        doc_ids=edit(manifest["stages"]["extract"]["doc_ids"]))


MALFORMED_IDS = {
    "missing": _drop_ids,
    "null": _set_ids(None),
    "string": _set_ids("doc01_protection"),
    "holding-an-int": _edit_ids(lambda ids: [*ids[:-1], 7]),
    "empty": _set_ids([]),
    "unsorted": _edit_ids(lambda ids: ids[::-1]),
    "duplicate": _edit_ids(lambda ids: ids[:1] + ids),
}


@pytest.mark.parametrize("case", MALFORMED_IDS)
def test_a_malformed_ids_record_means_read_the_corpus_and_record_them(
    tmp_path, monkeypatch, settled_clock, case
):
    """Extract misses, and its render reads and decodes each document once
    and records the ids.  "missing" is the extract record an earlier
    version wrote: one edit run upgrades it, and the next reads no corpus
    document."""
    config = load_config(project_config(tmp_path / "project", tmp_path / "out"))
    documents = sorted(p.name for p in config.corpus.iterdir())
    run_pipeline(config)
    manifest = manifest_of(config.output)
    MALFORMED_IDS[case](manifest)
    (config.output / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    reject(config.decisions)
    with monkeypatch.context() as patch:
        calls = spy_on_run(patch, config.output, config.corpus)
        result = run_pipeline(config)
    assert not result.stages["extract"].cache_hit and not result.stages["index"].cache_hit
    assert calls["read_corpus_files"] == 1 and calls["hash_files"] == 0
    assert corpus_reads(calls) == documents_decoded(calls) == dict.fromkeys(documents, 1)
    assert extract_ids(config.output) == oracle_ids(config.corpus)
    assert artifact_bytes(config.output) == cold_artifacts(tmp_path, config)
    reject(config.decisions, "relais tout ou rien")
    with monkeypatch.context() as patch:
        calls = spy_on_run(patch, config.output, config.corpus)
        result = run_pipeline(config)
    assert result.stages["extract"].cache_hit and not result.stages["index"].cache_hit
    assert calls["read_corpus_files"] == 0 and corpus_reads(calls) == {}


def test_force_renders_extract_and_records_its_ids_over_the_record(tmp_path, settled_clock):
    config = load_config(project_config(tmp_path / "project", tmp_path / "out"))
    run_pipeline(config)
    manifest = manifest_of(config.output)
    _set_ids(["not", "these"])(manifest)
    (config.output / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    reject(config.decisions)
    result = run_pipeline(config, force=True)
    assert not any(outcome.cache_hit for outcome in result.stages.values())
    assert extract_ids(config.output) == oracle_ids(config.corpus)
    assert artifact_bytes(config.output) == cold_artifacts(tmp_path, config)


#: sha256 of ``json_text(manifest["stages"])`` after each of these runs of
#: the fixture's project, in this order.  Each stage's fingerprint covers
#: ``__version__``, so a version bump updates every pin.
STAGE_RECORDS_SHA256 = {
    "cold": "cf4b7fb9614d5b452cc88aa321ca33ef9406a9336712b981d30c34fb97965326",
    "warm": "f5f6056cf2498d5642230992f5519c2d83d627460d54ef6fcae562d3ea7de266",
    "decisions edit": "1185de59f8f778a36bb6fe34375edd6aa7cf274c9bd58a647be7ac60a892092b",
    "corpus edit": "98b09cb9733ced7e32139e4623b0fa15fe97ad68b89a95cb25f73b949a1ca2a1",
    "extract record without doc_ids": "4c6959f9108679208e338ba0c868ab87bc289b051d18ee24f8b257c1068e0ec2",
    "forced": "66f8458d845b30bafbb81d81261205f117c6790159e7e0242463fac01a573a03",
}


def test_the_stage_records_after_each_kind_of_run_are_the_recorded_ones(tmp_path):
    """Guards what a record keeps beside its artifact's hash: the ``doc_ids``
    an extract hit restores, and the ``ok_inputs`` an index render keeps
    its ``ok`` side by."""
    config = load_config(project_config(tmp_path / "project", tmp_path / "out"))
    pins = {}
    for run in STAGE_RECORDS_SHA256:
        if run == "decisions edit":
            reject(config.decisions)
        elif run == "corpus edit":
            (config.corpus / "doc07_ajout.txt").write_text(
                "Un relais de tension est un relais.\n", encoding="utf-8")
        elif run == "extract record without doc_ids":
            manifest = manifest_of(config.output)
            _drop_ids(manifest)
            (config.output / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        run_pipeline(config, force=run == "forced")
        stages = json_text(manifest_of(config.output)["stages"])
        pins[run] = hashlib.sha256(stages.encode("utf-8")).hexdigest()
    assert pins == STAGE_RECORDS_SHA256


def _toggle_line(path: Path, line: str) -> None:
    """Take ``line`` out of the file at ``path``, or append it when absent;
    no file is an empty one."""
    lines = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
    kept = [x for x in lines if x != line]
    path.write_text("\n".join(kept if len(kept) < len(lines) else [*lines, line]) + "\n",
                    encoding="utf-8")


def _set_ok_fields(**fields):
    return lambda record: record.update(fields)


def _drop_ok_field(field: str):
    return lambda record: record.pop(field, None)


#: Index records the ``ok`` side cannot be kept from.
MALFORMED_OK_RECORDS = {
    "inputs-true": _set_ok_fields(ok_inputs=True),
    "inputs-not-hex": _set_ok_fields(ok_inputs="x" * 64),
    "inputs-missing": _drop_ok_field("ok_inputs"),
}


#: The ways an ``ok``-side oracle step edits ``doc_index.json``.
DOC_INDEX_EDITS = ("truncate", "edit", "frame")


def _edit_doc_index(config, how: str) -> None:
    """"frame" breaks the ``projected`` head, makes the index record's
    sha256 match, so only the frame shows the edit, and edits the decisions,
    so the index renders."""
    path = config.output / "doc_index.json"
    data = path.read_bytes()
    if how == "truncate":
        path.write_bytes(data[: len(data) // 2])
    elif how == "edit":  # same length, in the ok side, which comes first
        path.write_bytes(data.replace(b'"unannotated_docs"', b'"unannotated_dogs"', 1))
    else:
        data = data.replace(b',\n  "projected": ', b',\n  "projecteD": ', 1)
        path.write_bytes(data)
        manifest = manifest_of(config.output)
        manifest["stages"]["index"]["sha256"] = hashlib.sha256(data).hexdigest()
        (config.output / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        OK_SIDE_EDITS["decisions"](config, None)


def _edit_manifest(config, case: str) -> None:
    manifest = manifest_of(config.output)
    MALFORMED_OK_RECORDS[case](manifest["stages"]["index"])
    (config.output / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


#: The lines a corpus edit toggles: any but the anchor, which may be all a
#: random corpus holds, so no edit leaves it without a document.
_EDIT_LINES = [line for line in _CORPUS_LINES if line != _ANCHOR_LINE]

#: The edits an ``ok``-side oracle step picks from; each gets ``(config, rng)``.
OK_SIDE_EDITS = {
    "decisions": lambda config, rng: _toggle_line(config.decisions,
                                                  'reject term "relais de tension"'),
    "dsl": lambda config, rng: _toggle_line(
        config.dsl, "concept relais statique genus relais diff technologie=statique"),
    "stopwords": lambda config, rng: _toggle_line(config.stopwords, "tension"),
    "lexicon": lambda config, rng: _toggle_line(config.lexicon, "alarme\talarme\tNOUN"),
    "corpus": lambda config, rng: _toggle_line(
        config.corpus / rng.choice(["new.txt", *read_corpus_files_oracle(config.corpus)]),
        rng.choice(_EDIT_LINES)),
    "doc_index": lambda config, rng: _edit_doc_index(config, rng.choice(DOC_INDEX_EDITS)),
    "manifest": lambda config, rng: _edit_manifest(
        config, rng.choice(sorted(MALFORMED_OK_RECORDS))),
    "force": lambda config, rng: None,
    "none": lambda config, rng: None,
}


def ok_inputs_digest(config) -> tuple:
    """What the ``ok`` side is rendered from, read from the files."""
    return (
        (config.output / "candidates.json").read_bytes(),
        read_corpus_files_oracle(config.corpus),
        config.dsl.read_bytes(),
        config.stopwords.read_bytes(),
    )


def test_the_doc_index_keeps_its_ok_side_exactly_when_its_inputs_are_kept(
    tmp_path, monkeypatch, settled_clock
):
    """On the fixture, through every edit, every malformed index record and
    every edit of ``doc_index.json``, and on 6 random corpora through 4
    edits each, the edit kinds taken in turn, each followed by a decisions
    edit: after every run each artifact is a forced cold run's on the same
    inputs, and an index that renders keeps the ``ok`` side of the last
    artifact (it indexes the projected side only) exactly when the run is
    not forced and the side's inputs, the last artifact and the index
    record's ``ok`` fields are as the last run left them.  The frame splits
    out the ``ok`` side of every index the run renders."""
    indexed: list[int] = []
    index_corpus = pipeline.index_corpus

    def spy(*args):
        indexed.append(1)
        return index_corpus(*args)

    monkeypatch.setattr(pipeline, "index_corpus", spy)
    fixture_steps = ["decisions"]
    for case in MALFORMED_OK_RECORDS:
        fixture_steps += [f"manifest:{case}", "decisions"]
    for how in DOC_INDEX_EDITS:
        fixture_steps += [f"doc_index:{how}", "decisions"]
    fixture_steps += ["decisions", "dsl", "decisions", "stopwords", "decisions", "lexicon",
                      "decisions", "corpus", "decisions", "force",
                      "decisions", "none", "stopwords", "dsl"]
    rng = random.Random(20101026)
    kinds = itertools.cycle(sorted(OK_SIDE_EDITS))
    kept = Counter()
    oracles: dict[tuple, dict[str, bytes]] = {}  # a forced cold run's artifacts, by input bytes
    for case in range(7):
        root = tmp_path / f"project{case}"
        config = load_config(project_config(root))
        if case == 0:
            steps = fixture_steps
        else:
            shutil.rmtree(config.corpus)
            random_ids_corpus(rng, config.corpus)
            config.decisions.write_bytes(
                b'validate term "relais"\nvalidate term "relais de tension"\n'
                b'validate relation hyponymy "relais de tension" "relais"\n')
            steps = [step for _ in range(4) for step in (next(kinds), "decisions")]
        oracle = replace(config, output=root / "oracle")
        run_pipeline(config)
        last, record_ok, tampered = ok_inputs_digest(config), True, False
        for n, step in enumerate(steps):
            edit, _, variant = step.partition(":")
            if variant:
                {"manifest": _edit_manifest, "doc_index": _edit_doc_index}[edit](config, variant)
            else:
                OK_SIDE_EDITS[edit](config, rng)
            record_ok &= edit != "manifest"
            tampered |= edit == "doc_index"
            indexed.clear()
            result = run_pipeline(config, force=edit == "force")
            hit = result.stages["index"].cache_hit
            digest = ok_inputs_digest(config)
            keeps = not (edit == "force" or not record_ok or tampered or digest != last)
            assert not (hit and tampered), (case, n, step)
            assert len(indexed) == (0 if hit else 2 - keeps), (case, n, step)
            inputs = (*read_corpus_files_oracle(config.corpus).items(),
                      *(getattr(config, name).read_bytes() for name in INPUTS))
            if inputs not in oracles:
                oracles[inputs] = artifact_bytes(run_pipeline(oracle, force=True).output_dir)
            assert artifact_bytes(config.output) == oracles[inputs], (case, n, step)
            if not hit:
                text = (config.output / "doc_index.json").read_text(encoding="utf-8")
                assert ok_side_text(text) == json_text(json.loads(text)["ok"], 1), (case, n, step)
                kept[keeps] += 1
                record_ok = True
            last, tampered = digest, False
    # Every decisions step renders (each corpus keeps «relais de tension», so
    # the toggle changes the taxonomy) and keeps the ok side unless the step
    # before broke the index record; with the kinds in turn, the steps whose
    # outcome is fixed give 35 keeps and 29 full renders on their own.
    assert kept[True] >= 25 and kept[False] >= 25, kept


def test_an_ok_length_an_earlier_version_recorded_is_ignored(tmp_path, monkeypatch, settled_clock):
    """An index record that still holds ``ok_length``, here one that frames
    nothing, keeps its ``ok`` side on a decisions edit; the record the index
    renders drops the field."""
    config = load_config(project_config(tmp_path / "project", tmp_path / "out"))
    run_pipeline(config)
    manifest = manifest_of(config.output)
    manifest["stages"]["index"]["ok_length"] = 1
    (config.output / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    reject(config.decisions)
    indexed = []
    index_corpus = pipeline.index_corpus
    monkeypatch.setattr(pipeline, "index_corpus",
                        lambda *args: indexed.append(1) or index_corpus(*args))
    result = run_pipeline(config)
    assert not result.stages["index"].cache_hit and indexed == [1]
    assert "ok_length" not in manifest_of(config.output)["stages"]["index"]
    monkeypatch.undo()
    assert artifact_bytes(config.output) == cold_artifacts(tmp_path, config)


def comment_out_a_decision(decisions: Path) -> None:
    """A same-size edit that drops a decision, so the validate stage's
    artifact changes."""
    text = decisions.read_text(encoding="utf-8")
    decisions.write_text(text.replace('validate term "relais à seuil"',
                                      '#alidate term "relais à seuil"'), encoding="utf-8")
    assert decisions.read_text(encoding="utf-8") != text


def cold_artifacts(tmp_path: Path, config) -> dict[str, bytes]:
    """The artifacts of a cold run on ``config``'s inputs as they are now."""
    return artifact_bytes(run_pipeline(replace(config, output=tmp_path / "cold")).output_dir)


@pytest.mark.parametrize("hashed_after_ctime, noticed", [(RACY_NS, True), (RACY_NS + 1, False)])
def test_a_same_size_edit_that_keeps_the_stat_data_is_noticed_within_the_racy_step(
    tmp_path, hashed_after_ctime, noticed
):
    """The edit lands in the timestamp step of its hash, so the file's stat
    data look unchanged: the manifest is given the edited file's listing
    and a hash time ``hashed_after_ctime`` after its ``ctime``.  Only the
    racy rule can notice the edit; a hash older than the file by more than
    ``RACY_NS`` is trusted."""
    config = load_config(project_config(tmp_path))
    run_pipeline(config)
    comment_out_a_decision(config.decisions)
    listing, ctime_ns = pipeline._current_listing(config.decisions, corpus=False)
    manifest = manifest_of(config.output)
    manifest["inputs"]["decisions"].update(listing=listing, hashed_ns=ctime_ns + hashed_after_ctime)
    (config.output / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    result = run_pipeline(config)
    assert result.stages["validate"].cache_hit is not noticed
    if noticed:
        assert artifact_bytes(config.output) == cold_artifacts(tmp_path, config)


@pytest.mark.parametrize("edited, stage", [
    ("decisions.txt", "validate"), ("corpus/doc03_tension.txt", "extract"),
])
def test_a_same_size_edit_set_back_to_the_recorded_mtime_is_noticed(
    tmp_path, settled_clock, edited, stage
):
    config = load_config(project_config(tmp_path))
    path = tmp_path / edited
    run_pipeline(config)
    before = path.stat()
    data = path.read_bytes()
    path.write_bytes(data.replace(b"e", b"E", 1))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    result = run_pipeline(config)
    assert not result.stages[stage].cache_hit
    assert artifact_bytes(config.output) == cold_artifacts(tmp_path, config)


def test_a_copied_project_rehashes_every_input_and_every_stage_still_hits(
    tmp_path, monkeypatch, settled_clock
):
    project_config(tmp_path / "a")
    run_pipeline(load_config(tmp_path / "a" / "config.toml"))
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    config = load_config(tmp_path / "b" / "config.toml")
    calls = spy_on_run(monkeypatch, config.output)
    result = run_pipeline(config)
    assert all(outcome.cache_hit for outcome in result.stages.values())
    assert calls["read_corpus_files"] == 1
    assert inputs_hashed(calls, config) == dict.fromkeys(INPUTS, 1)


class HalfWriter:
    """A file that writes half of what it is given, then fails as a full
    disk would."""

    def __init__(self, f) -> None:
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.f.close()

    def write(self, data: bytes) -> int:
        self.f.write(data[: len(data) // 2])
        self.f.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("fault", ["write", "render"])
def test_a_run_that_fails_in_a_stage_leaves_no_partial_file_and_the_next_renders_it(
    tmp_path, monkeypatch, fault
):
    """The project stage fails after validate wrote; its old artifact stays
    whole, no temp file is left, the manifest keeps the last records of the
    stages the run did not reach, and the next run renders only the
    project stage and the stages that read its artifact."""
    config = load_config(project_config(tmp_path))
    run_pipeline(config)
    before = artifact_bytes(config.output)
    reject(config.decisions, "relais tout ou rien")
    with monkeypatch.context() as patch:
        if fault == "write":
            builtin_open = builtins.open

            def open_(file, mode="r", *args, **kwargs):
                f = builtin_open(file, mode, *args, **kwargs)
                if os.path.basename(file).startswith(".taxonomy.json.") and mode == "wb":
                    return HalfWriter(f)
                return f

            patch.setattr(builtins, "open", open_)
        else:
            def render_project(values):
                raise RuntimeError("killed between two stages")

            patch.setattr(pipeline, "render_project", render_project)
        with pytest.raises(OSError if fault == "write" else RuntimeError):
            run_pipeline(config)
    assert {p.name for p in config.output.iterdir()} == EXPECTED_ARTIFACTS | {"manifest.json"}
    assert (config.output / "taxonomy.json").read_bytes() == before["taxonomy.json"]
    assert set(manifest_of(config.output)["stages"]) == set(STAGES)
    result = run_pipeline(config)
    misses = {name for name, outcome in result.stages.items() if not outcome.cache_hit}
    assert misses == {"project", "align", "index"}
    assert artifact_bytes(config.output) == cold_artifacts(tmp_path, config)


def test_a_dsl_that_does_not_parse_keeps_the_records_of_the_stages_after_ok_check(
    tmp_path, capsys
):
    config_path = project_config(tmp_path)
    config = load_config(config_path)
    run_pipeline(config)
    dsl = config.dsl.read_bytes()
    config.dsl.write_text("concept relais root\nconcept r genus zz diff a=b\n", encoding="utf-8")
    assert main(["run", "--config", str(config_path)]) == 2
    assert "E_SYNTAX" in capsys.readouterr().err
    config.dsl.write_bytes(dsl)
    result = run_pipeline(config)
    assert all(outcome.cache_hit for outcome in result.stages.values())


def test_the_manifest_keeps_no_record_of_an_input_or_stage_the_run_does_not_have(tmp_path):
    config = load_config(project_config(tmp_path))
    run_pipeline(config)
    manifest = manifest_of(config.output)
    manifest["stages"]["tag"] = manifest["stages"]["extract"]
    (config.output / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    run_pipeline(replace(config, synonyms=None))
    manifest = manifest_of(config.output)
    assert set(manifest["inputs"]) == {"corpus", *INPUTS} - {"synonyms"}
    assert set(manifest["stages"]) == set(STAGES)


# --- CLI ----------------------------------------------------------------------


def test_cli_run_and_exit_codes(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "8 stages" in out


def test_cli_usage_error_is_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["extract"])  # missing --corpus
    assert exc.value.code == 1


def test_cli_missing_config_key_is_exit_1(tmp_path, capsys):
    config = tmp_path / "c.toml"
    config.write_text('corpus = "x"\n', encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"ontoterm: E_CONFIG: {config}: missing required key 'lexicon'\n"


def test_cli_config_line_error_is_exit_1_naming_the_file_and_line(tmp_path, capsys):
    config = tmp_path / "c.toml"
    config.write_text('# pipeline\ncorpus\n', encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"ontoterm: E_CONFIG: {config}: line 2: expected 'key = value'\n"


def test_cli_config_iri_that_is_no_iri_is_exit_1_naming_it(tmp_path, capsys):
    iri = "http://x.org/a> Ontology(<evil"
    for export_format in ("owl", "kif"):  # checked on reading, not only by the OWL export
        base = tmp_path / export_format
        base.mkdir()
        config = write_config(base, iri=iri, export_format=export_format)
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ontoterm: E_CONFIG: {config}: iri holds whitespace")
        assert err.endswith(f": {iri!r}\n")
        assert not (base / "out").exists()  # no artifact, no manifest


def test_cli_config_duplicate_key_is_exit_1_naming_it_and_its_line(tmp_path, capsys):
    config = write_config(tmp_path, export_format="owl")  # eight lines
    with config.open("a", encoding="utf-8") as fh:
        fh.write('export_format = "kif"\n')
    assert main(["run", "--config", str(config)]) == 1
    assert capsys.readouterr().err == (
        f"ontoterm: E_CONFIG: {config}: line 9: duplicate key 'export_format'\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_bad_decision_is_exit_2_naming_the_file_and_line(tmp_path, capsys, command):
    decisions = tmp_path / "decisions.txt"
    decisions.write_text('reject term "relais"\nreject everything\n', encoding="utf-8")
    lexnet = tmp_path / "lexnet.json"
    lexnet.write_text('{"terms": [], "relations": []}', encoding="utf-8")
    argv = {
        "validate": ["validate", "--lexnet", str(lexnet), "--decisions", str(decisions),
                     "--out", str(tmp_path / "validated.json")],
        "run": ["run", "--config", str(write_config(tmp_path, decisions=str(decisions)))],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"ontoterm: E_UNKNOWN_REF: {decisions}: line 2: cannot parse decision: 'reject everything'\n"
    )


@pytest.mark.parametrize("command", ["ok-check", "run"])
def test_cli_dsl_parse_error_is_exit_2_naming_the_file_and_line(tmp_path, capsys, command):
    dsl = tmp_path / "bad.dsl"
    dsl.write_text("concept relais root\nconcept r genus zz diff a=b\n", encoding="utf-8")
    argv = {
        "ok-check": ["ok-check", "--dsl", str(dsl)],
        "run": ["run", "--config", str(write_config(tmp_path, dsl=str(dsl)))],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"ontoterm: E_SYNTAX: {dsl}: line 2: E_UNKNOWN_GENUS: unknown genus: 'zz'\n"
    )


def test_cli_ok_check_reports_a_missing_root_at_the_last_line(tmp_path, capsys):
    dsl = tmp_path / "rootless.dsl"
    dsl.write_text("axis a values x, y\naxis b values u, v\n", encoding="utf-8")
    assert main(["ok-check", "--dsl", str(dsl)]) == 2
    assert capsys.readouterr().err == (
        f"ontoterm: E_SYNTAX: {dsl}: line 2: E_SYNTAX: no root concept declared\n"
    )


@pytest.mark.parametrize("line, problem", [
    ("relais\trelais\n", "expected 3 tab-separated columns"),
    ("relais\trelais\tXYZ\n", "unknown POS tag 'XYZ'"),
    (" \trelais\tN\n", "empty surface form"),
    ("relais\t\tNOUN\n", "empty lemma"),
])
def test_cli_malformed_lexicon_line_is_exit_1(tmp_path, capsys, line, problem):
    lexicon = tmp_path / "bad_lex.tsv"
    lexicon.write_text(line, encoding="utf-8")
    argv = ["extract", "--corpus", str(data_path("corpus")), "--lexicon", str(lexicon)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"ontoterm: E_CONFIG: {lexicon}: line 1: {problem}\n"


def test_cli_stage_failure_is_exit_2(tmp_path, capsys):
    config = write_config(tmp_path, corpus=str(tmp_path / "nowhere"))
    assert main(["run", "--config", str(config)]) == 2
    assert "E_NO_CORPUS" in capsys.readouterr().err


def test_cli_inconsistent_ontology_is_exit_3(tmp_path, capsys):
    bad_dsl = tmp_path / "bad.dsl"
    bad_dsl.write_text(
        "axis a values x, y\nconcept r root\n"
        "concept c1 genus r diff a=x\nconcept c2 genus r diff a=x\n",
        encoding="utf-8",
    )
    config = write_config(tmp_path, dsl=str(bad_dsl))
    assert main(["run", "--config", str(config)]) == 3


def test_an_inconsistent_ontology_stops_the_run_on_an_ok_check_hit_too(tmp_path, capsys):
    """The second run's ok-check hits, and its report is decoded from the
    bytes it hashed: it stops the run with the same violations, and no
    stage after it writes its artifact."""
    bad_dsl = tmp_path / "bad.dsl"
    bad_dsl.write_text("concept a root\nconcept b root\n", encoding="utf-8")
    config_path = write_config(tmp_path, dsl=str(bad_dsl))
    config = load_config(config_path)
    raised = []
    for _ in range(2):
        with pytest.raises(InconsistentOntologyError) as exc:
            run_pipeline(config)
        raised.append((str(exc.value), exc.value.violations))
    assert manifest_of(config.output)["stages"]["ok-check"]["cache_hit"]
    assert raised[0] == raised[1] and raised[0][1]
    written = {p.name for p in config.output.iterdir()}
    assert not written & {"alignment.json", "doc_index.json", "ontology.owl"}
    for _ in range(2):
        assert main(["run", "--config", str(config_path)]) == 3
        assert capsys.readouterr().err == f"ontoterm: E_INCONSISTENT: {raised[0][0]}\n"


def test_cli_ok_check_reports_violations(tmp_path, capsys):
    bad_dsl = tmp_path / "bad.dsl"
    bad_dsl.write_text("concept a root\nconcept b root\n", encoding="utf-8")
    assert main(["ok-check", "--dsl", str(bad_dsl), "--format", "json"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"][0]["rule"] == "R1"
    assert main(["ok-check", "--dsl", str(data_path("relais.dsl"))]) == 0


def test_cli_stage_chain_standalone(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ONTOTERM_NO_COLOR", "1")
    data = data_path()
    paths = {name: str(tmp_path / name) for name in (
        "candidates.json", "retrieval_candidates.json", "lexnet.json", "validated.json",
        "taxonomy.json", "alignment.json", "index.json", "ontology.owl", "taxonomy.dot",
    )}

    assert main(["extract", "--corpus", str(data / "corpus"),
                 "--lexicon", str(data / "lexicon.tsv"),
                 "--patterns", str(data / "patterns.txt"),
                 "--out", paths["candidates.json"]]) == 0
    assert main(["net", "--candidates", paths["candidates.json"],
                 "--corpus", str(data / "corpus"),
                 "--lexicon", str(data / "lexicon.tsv"),
                 "--out", paths["lexnet.json"]]) == 0
    assert main(["validate", "--lexnet", paths["lexnet.json"],
                 "--decisions", str(data / "decisions.txt"),
                 "--out", paths["validated.json"]]) == 0
    assert main(["project", "--lexnet", paths["validated.json"],
                 "--out", paths["taxonomy.json"], "--dot", paths["taxonomy.dot"]]) == 0
    assert main(["align", "--taxonomy", paths["taxonomy.json"],
                 "--dsl", str(data / "relais.dsl"),
                 "--stopwords", str(data / "stopwords.txt"),
                 "--out", paths["alignment.json"], "--format", "table"]) == 0
    assert main(["extract", "--corpus", str(data / "retrieval"),
                 "--lexicon", str(data / "lexicon.tsv"),
                 "--patterns", str(data / "patterns.txt"),
                 "--out", paths["retrieval_candidates.json"]]) == 0
    assert main(["index", "--corpus", str(data / "retrieval"),
                 "--candidates", paths["retrieval_candidates.json"],
                 "--taxonomy", paths["taxonomy.json"],
                 "--dsl", str(data / "relais.dsl"),
                 "--out", paths["index.json"]]) == 0
    capsys.readouterr()

    assert main(["query", "--index", paths["index.json"], "--structure", "projected",
                 "--taxonomy", paths["taxonomy.json"],
                 "--concept", "relais à seuil", "--format", "json"]) == 0
    docs = json.loads(capsys.readouterr().out)["documents"]
    assert docs == ["d2"]

    assert main(["query", "--index", paths["index.json"], "--structure", "ok",
                 "--dsl", str(data / "relais.dsl"),
                 "--concept", "relais à seuil", "--format", "json"]) == 0
    docs = json.loads(capsys.readouterr().out)["documents"]
    assert docs == ["d1", "d2"]

    assert main(["compare-recall", "--index", paths["index.json"],
                 "--taxonomy", paths["taxonomy.json"],
                 "--dsl", str(data / "relais.dsl"),
                 "--concept", "relais à seuil"]) == 0
    table = capsys.readouterr().out
    assert "symmetric difference: ['d1']" in table
    assert "\x1b[" not in table  # color disabled by the environment switch

    assert main(["export", "--dsl", str(data / "relais.dsl"), "--format", "owl",
                 "--out", paths["ontology.owl"]]) == 0
    owl = Path(paths["ontology.owl"]).read_text(encoding="utf-8")
    assert "SubClassOf(:RelaisASeuilDeTension :RelaisASeuil)" in owl

    dot = Path(paths["taxonomy.dot"]).read_text(encoding="utf-8")
    assert "digraph" in dot


def check_cli_stages_write_the_pipelines_bytes(tmp_path, capsys, corpus_dir: Path) -> None:
    data = data_path()
    config = load_config(write_config(tmp_path, corpus=str(corpus_dir)))
    run_pipeline(config)
    cli = tmp_path / "cli"
    cli.mkdir()
    inputs = ["--dsl", str(data / "relais.dsl"), "--stopwords", str(data / "stopwords.txt")]
    corpus = ["--corpus", str(corpus_dir), "--lexicon", str(data / "lexicon.tsv")]
    chain = [
        ["extract", *corpus, "--patterns", str(data / "patterns.txt"),
         "--out", str(cli / "candidates.json")],
        ["net", "--candidates", str(cli / "candidates.json"), *corpus,
         "--out", str(cli / "lexnet.json")],
        ["validate", "--lexnet", str(cli / "lexnet.json"), "--decisions",
         str(data / "decisions.txt"), "--out", str(cli / "lexnet_validated.json")],
        ["project", "--lexnet", str(cli / "lexnet_validated.json"),
         "--out", str(cli / "taxonomy.json")],
        ["align", "--taxonomy", str(cli / "taxonomy.json"), *inputs,
         "--out", str(cli / "alignment.json")],
        ["index", "--corpus", str(corpus_dir), "--candidates", str(cli / "candidates.json"),
         "--taxonomy", str(cli / "taxonomy.json"), *inputs, "--out", str(cli / "doc_index.json")],
        ["export", "--dsl", str(data / "relais.dsl"), "--format", "owl",
         "--out", str(cli / "ontology.owl")],
    ]
    for argv in chain:
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert main(["ok-check", "--dsl", str(data / "relais.dsl"), "--format", "json"]) == 0
    (cli / "ok_report.json").write_text(capsys.readouterr().out, encoding="utf-8")
    assert artifact_bytes(cli) == artifact_bytes(config.output)


def test_cli_stages_write_the_pipelines_bytes(tmp_path, capsys):
    check_cli_stages_write_the_pipelines_bytes(tmp_path, capsys, data_path("corpus"))


def test_cli_stages_write_the_pipelines_bytes_on_a_harder_corpus(tmp_path, capsys):
    """The CLI's index takes its ids from the corpus, the pipeline's from the
    extract stage: they agree on a corpus with a blank document, a
    whitespace-only one, a CRLF one and one that no candidate annotates."""
    corpus = tmp_path / "corpus"
    shutil.copytree(data_path("corpus"), corpus)
    (corpus / "blank.txt").write_bytes(b"")
    (corpus / "space.txt").write_bytes(b" \r\n\t\n")
    (corpus / "crlf.txt").write_bytes(
        (corpus / "doc03_tension.txt").read_bytes().replace(b"\n", b"\r\n"))
    (corpus / "unannotated.txt").write_text("Le chat dort sur le toit.\n", encoding="utf-8")
    check_cli_stages_write_the_pipelines_bytes(tmp_path, capsys, corpus)
    payload = json.loads((tmp_path / "cli" / "doc_index.json").read_bytes())
    for side in payload.values():
        annotated = {row["doc_id"] for row in side["annotations"]}
        assert "crlf" in annotated and side["unannotated_docs"] == ["unannotated"]
        assert not {"blank", "space"} & (annotated | set(side["unannotated_docs"]))


@pytest.mark.parametrize("case, code", [
    ("project-missing", "E_IO"),
    ("ok-check-missing", "E_IO"),
    ("extract-missing-lexicon", "E_IO"),
    ("project-misshapen", "E_ARTIFACT"),
    ("query-misshapen-index", "E_ARTIFACT"),
    ("query-missing-index-side", "E_ARTIFACT"),
    ("compare-recall-missing-index-side", "E_ARTIFACT"),
    ("align-dangling-taxonomy-edge", "E_ARTIFACT"),
    ("align-taxonomy-label-an-int", "E_ARTIFACT"),
    ("query-cyclic-taxonomy", "E_ARTIFACT"),
    ("project-deeply-nested", "E_ARTIFACT"),
    ("compare-recall-integer-doc-ids", "E_ARTIFACT"),
    ("query-unannotated-docs-a-string", "E_ARTIFACT"),
    ("net-candidate-lemmas-a-nested-list", "E_ARTIFACT"),
    ("net-candidate-head-a-list", "E_ARTIFACT"),
    ("net-candidate-offset-true", "E_ARTIFACT"),
    ("validate-lexnet-term-label-an-int", "E_ARTIFACT"),
    ("project-lexnet-relation-source-null", "E_ARTIFACT"),
    ("project-lexnet-term-label-an-int", "E_ARTIFACT"),
])
def test_cli_input_failures_are_exit_2_without_traceback(tmp_path, capsys, case, code):
    missing = str(tmp_path / "missing")
    misshapen = tmp_path / "lexnet.json"
    misshapen.write_text('{"x": 1}', encoding="utf-8")
    index = tmp_path / "doc_index.json"
    index.write_text('{"ok": {"annotations": ["d1"]}}', encoding="utf-8")
    one_side = tmp_path / "one_side.json"
    one_side.write_text('{"ok": {"annotations": []}}', encoding="utf-8")
    taxonomy = tmp_path / "taxonomy.json"
    taxonomy.write_text('{"concepts": [], "subsumption": []}', encoding="utf-8")
    dangling = tmp_path / "dangling.json"
    dangling.write_text(json.dumps({
        "concepts": [{"id": "a", "label": "a", "denoting_terms": ["a"]}],
        "subsumption": [["b", "a"]],
    }), encoding="utf-8")
    label_3 = tmp_path / "label_3.json"
    label_3.write_text(json.dumps({
        "concepts": [{"id": "a", "label": 3, "denoting_terms": ["a"]}], "subsumption": [],
    }), encoding="utf-8")
    cyclic = tmp_path / "cyclic.json"
    cyclic.write_text(json.dumps({
        "concepts": [{"id": cid, "label": cid, "denoting_terms": [cid]} for cid in "abc"],
        "subsumption": [["b", "a"], ["a", "b"], ["c", "a"]],
    }), encoding="utf-8")
    projected_side = tmp_path / "projected_side.json"
    projected_side.write_text('{"projected": {"annotations": []}}', encoding="utf-8")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    row = {"doc_id": "d1", "concept": "relais à seuil", "source": "TERM_OCCURRENCE"}
    integer_ids = tmp_path / "integer_ids.json"
    integer_ids.write_text(json.dumps({
        "projected": {"annotations": [row]},
        "ok": {"annotations": [{**row, "doc_id": 1}, {**row, "doc_id": 2}]},
    }), encoding="utf-8")
    unannotated_string = tmp_path / "unannotated_string.json"
    unannotated_string.write_text(json.dumps(
        {"ok": {"annotations": [row], "unannotated_docs": "abc"}}
    ), encoding="utf-8")
    candidate = {"frequency": 1, "head": "relais", "label": "relais", "lemmas": ["relais"],
                 "occurrences": [["d1", 0]], "pattern_id": "n"}
    nested_lemmas = tmp_path / "nested_lemmas.json"
    nested_lemmas.write_text(json.dumps([candidate, {**candidate, "lemmas": [["x"]]}]),
                             encoding="utf-8")
    listed_head = tmp_path / "listed_head.json"
    listed_head.write_text(json.dumps([candidate, {**candidate, "head": ["x"]}]),
                           encoding="utf-8")
    offset_true = tmp_path / "offset_true.json"
    offset_true.write_text(json.dumps([candidate, {**candidate, "occurrences": [["d1", True]]}]),
                           encoding="utf-8")
    term = {"head": "relais", "label": "relais", "status": "VALIDATED"}
    relation = {"evidence": "SAME_HEAD", "evidence_sources": ["SAME_HEAD"], "kind": "HYPONYMY",
                "source": "relais à seuil", "status": "VALIDATED", "target": "relais"}

    def lexnet(name: str, terms: list, relations: list) -> str:
        path = tmp_path / name
        path.write_text(json.dumps({"terms": terms, "relations": relations}), encoding="utf-8")
        return str(path)

    seuil = {**term, "label": "relais à seuil"}
    label_0 = lexnet("label_0.json", [{**term, "label": 0}, seuil], [relation])
    source_null = lexnet("source_null.json", [term, seuil],
                         [relation, {**relation, "source": None}])
    label_7 = lexnet("label_7.json", [term, {**seuil, "label": 7}], [relation])
    no_decisions = tmp_path / "no_decisions.txt"
    no_decisions.write_text("", encoding="utf-8")
    net = ["--corpus", str(data_path("corpus")), "--lexicon", str(data_path("lexicon.tsv")),
           "--out", str(tmp_path / "lexnet_out.json")]
    dsl = str(data_path("relais.dsl"))
    argv = {
        "project-missing": ["project", "--lexnet", missing],
        "ok-check-missing": ["ok-check", "--dsl", missing],
        "extract-missing-lexicon": ["extract", "--corpus", str(data_path("corpus")),
                                    "--lexicon", missing],
        "project-misshapen": ["project", "--lexnet", str(misshapen)],
        "query-misshapen-index": ["query", "--index", str(index), "--structure", "ok",
                                  "--concept", "relais", "--dsl", dsl],
        "query-missing-index-side": ["query", "--index", str(one_side), "--structure",
                                     "projected", "--concept", "relais",
                                     "--taxonomy", str(taxonomy)],
        "compare-recall-missing-index-side": ["compare-recall", "--index", str(one_side),
                                              "--taxonomy", str(taxonomy), "--dsl", dsl,
                                              "--concept", "relais"],
        "align-dangling-taxonomy-edge": ["align", "--taxonomy", str(dangling), "--dsl", dsl],
        "align-taxonomy-label-an-int": ["align", "--taxonomy", str(label_3), "--dsl", dsl],
        "query-cyclic-taxonomy": ["query", "--index", str(projected_side), "--structure",
                                  "projected", "--concept", "c", "--taxonomy", str(cyclic)],
        "project-deeply-nested": ["project", "--lexnet", str(deep)],
        "compare-recall-integer-doc-ids": ["compare-recall", "--index", str(integer_ids),
                                           "--taxonomy", str(taxonomy), "--dsl", dsl,
                                           "--concept", "relais à seuil"],
        "query-unannotated-docs-a-string": ["query", "--index", str(unannotated_string),
                                            "--structure", "ok", "--concept", "relais à seuil",
                                            "--dsl", dsl],
        "net-candidate-lemmas-a-nested-list": ["net", "--candidates", str(nested_lemmas), *net],
        "net-candidate-head-a-list": ["net", "--candidates", str(listed_head), *net],
        "net-candidate-offset-true": ["net", "--candidates", str(offset_true), *net],
        "validate-lexnet-term-label-an-int": ["validate", "--lexnet", label_0,
                                              "--decisions", str(no_decisions),
                                              "--out", str(tmp_path / "validated_out.json")],
        "project-lexnet-relation-source-null": ["project", "--lexnet", source_null],
        "project-lexnet-term-label-an-int": ["project", "--lexnet", label_7],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ontoterm: {code}: ")
    assert "Traceback" not in err
    # a value that is not a string is refused naming its field
    lexnet_field = "a term's label or head, or a relation's source or target"
    field = {
        "align-taxonomy-label-an-int": "a concept id, label or denoting term",
        "compare-recall-integer-doc-ids":
            "a doc_id, concept, unannotated_docs or skipped_ambiguous entry",
        "net-candidate-lemmas-a-nested-list": "row 1: a lemma, pattern_id or head",
        "net-candidate-head-a-list": "row 1: a lemma, pattern_id or head",
    }.get(case, lexnet_field if "-lexnet-" in case else None)
    if field:
        assert f"{field} is not a string" in err, err
    if case == "query-cyclic-taxonomy":
        assert "subsumption cycle: a -> b -> a" in err
    if case == "compare-recall-integer-doc-ids":
        assert err.startswith(f"ontoterm: E_ARTIFACT: {integer_ids}: ")
    if case == "query-unannotated-docs-a-string":
        assert err.startswith(f"ontoterm: E_ARTIFACT: {unannotated_string}: ")
    if case.startswith("net-candidate-"):
        field = case.split("-")[2]
        path = {"lemmas": nested_lemmas, "head": listed_head, "offset": offset_true}[field]
        assert err.startswith(f"ontoterm: E_ARTIFACT: {path}: ") and "row 1: " in err
        assert not (tmp_path / "lexnet_out.json").exists()
    if "-lexnet-" in case:
        assert err.startswith(f"ontoterm: E_ARTIFACT: {argv[2]}: ")
        assert not (tmp_path / "validated_out.json").exists()


#: The values a fuzzed artifact's node is given in place of its own.
RETYPED = (7, True, None, 1.5, [], {}, "x")


def mutated(payload, rng: random.Random):
    """A copy of ``payload`` with one node, picked at random, dropped (a
    dict's key), duplicated (a list's row) or given a value of another
    type."""
    payload = copy.deepcopy(payload)
    slots, stack = [], [payload]
    while stack:
        node = stack.pop()
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            slots.append((node, key))
            if isinstance(value, (dict, list)):
                stack.append(value)
    node, key = rng.choice(slots)
    if rng.random() < 0.5:
        node[key] = rng.choice(RETYPED)
    elif isinstance(node, dict):
        del node[key]
    else:
        node.insert(key, copy.deepcopy(node[key]))
    return payload


def test_cli_commands_refuse_fuzzed_artifacts_without_a_traceback(tmp_path, capsys):
    """Each artifact a command reads, mutated at one node 60 times over: the
    command succeeds, or exits 2 with ``E_ARTIFACT``; no exception leaves
    ``main``.  ``validate`` may also exit 2 with ``E_UNKNOWN_REF``: the
    fixture's decisions name terms and relations a mutated network can lose."""
    data = data_path()
    out = run_pipeline(load_config(write_config(tmp_path))).output_dir
    fuzzed, written = tmp_path / "fuzzed.json", str(tmp_path / "written.json")
    dsl = ["--dsl", str(data / "relais.dsl"), "--stopwords", str(data / "stopwords.txt")]
    taxonomy, label = ["--taxonomy", str(out / "taxonomy.json")], ["--concept", "relais à seuil"]
    index = ["index", "--corpus", str(data / "corpus"), *dsl, "--out", written]
    commands = [
        ("candidates.json", ["net", "--candidates", str(fuzzed), "--corpus", str(data / "corpus"),
                             "--lexicon", str(data / "lexicon.tsv"), "--out", written]),
        ("lexnet.json", ["validate", "--lexnet", str(fuzzed),
                         "--decisions", str(data / "decisions.txt"), "--out", written]),
        ("lexnet_validated.json", ["project", "--lexnet", str(fuzzed), "--out", written]),
        ("taxonomy.json", ["align", "--taxonomy", str(fuzzed), *dsl, "--out", written]),
        ("doc_index.json", ["compare-recall", "--index", str(fuzzed), *dsl, *taxonomy, *label]),
        ("doc_index.json", ["query", "--index", str(fuzzed), "--structure", "projected",
                            *taxonomy, *label]),
        ("doc_index.json", ["query", "--index", str(fuzzed), "--structure", "ok", *dsl, *label]),
        ("candidates.json", [*index, "--candidates", str(fuzzed), *taxonomy]),
        ("taxonomy.json", [*index, "--candidates", str(out / "candidates.json"),
                           "--taxonomy", str(fuzzed)]),
    ]
    rng = random.Random(32)
    escapes = []
    for artifact, argv in commands:
        refusals = ("ontoterm: E_ARTIFACT: ",)
        if argv[0] == "validate":
            refusals += ("ontoterm: E_UNKNOWN_REF: ",)
        payload = json.loads((out / artifact).read_bytes())
        for n in range(60):
            fuzzed.write_text(json.dumps(mutated(payload, rng)), encoding="utf-8")
            try:
                code = main(argv)
            except Exception as exc:  # an escape: collected, and the fuzz goes on
                code = repr(exc)
            err = capsys.readouterr().err
            if code != 0 and not (code == 2 and err.startswith(refusals)):
                escapes.append((artifact, n, code, err))
    assert escapes == []


@pytest.mark.parametrize("kind", [
    "lexicon", "patterns", "corpus", "dsl", "decisions", "stopwords", "synonyms", "config",
])
def test_cli_non_utf8_input_is_exit_2_naming_the_file(tmp_path, capsys, kind):
    latin1 = "relais électrique\n".encode("latin-1")
    if kind == "corpus":
        bad = tmp_path / "corpus"
        bad.mkdir()
        (bad / "doc.txt").write_bytes(latin1)
        bad = bad / "doc.txt"
    else:
        bad = tmp_path / f"bad_{kind}"
        bad.write_bytes(latin1)
    corpus = str(data_path("corpus"))
    argv = {
        "lexicon": ["extract", "--corpus", corpus, "--lexicon", str(bad)],
        "patterns": ["extract", "--corpus", corpus, "--patterns", str(bad)],
        "corpus": ["extract", "--corpus", str(bad.parent)],
        "dsl": ["ok-check", "--dsl", str(bad)],
        "config": ["run", "--config", str(bad)],
    }.get(kind) or ["run", "--config", str(write_config(tmp_path, **{kind: str(bad)}))]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("ontoterm: E_ENCODING: ")
    assert bad.name in err
    assert "Traceback" not in err


def write_non_utf8_name(directory: Path, name: bytes, data: bytes) -> bytes:
    """Write ``data`` to ``directory``/``name``; returns the file's path."""
    path = os.path.join(os.fsencode(directory), name)
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError:
        pytest.skip("the filesystem refuses a file name that is not UTF-8")
    return path


def test_cli_run_takes_a_corpus_holding_a_non_utf8_file_name(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(data_path("corpus"), corpus)
    write_non_utf8_name(corpus, b"notes\xff.md", b"not a document\n")
    config = write_config(tmp_path, corpus=str(corpus))
    assert main(["run", "--config", str(config)]) == 0
    assert main(["run", "--config", str(config)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("8 stages, 8 cache hits")
    write_non_utf8_name(corpus, b"notes\xff.md", b"edited\n")
    assert main(["run", "--config", str(config)]) == 0
    assert capsys.readouterr().out.startswith("8 stages, 8 cache hits")  # no document changed


@pytest.mark.parametrize("command", ["extract", "run"])
def test_cli_document_with_a_non_utf8_name_is_exit_2_naming_it(tmp_path, capsys, command):
    corpus = tmp_path / "corpus"
    shutil.copytree(data_path("corpus"), corpus)
    path = write_non_utf8_name(corpus, b"\xff.txt", "relais à seuil\n".encode("utf-8"))
    argv = {
        "extract": ["extract", "--corpus", str(corpus), "--out", str(tmp_path / "c.json")],
        "run": ["run", "--config", str(write_config(tmp_path, corpus=str(corpus)))],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"ontoterm: E_ENCODING: file name is not UTF-8: {path!r}\n"


def test_cli_validate_reports_term_statuses(tmp_path, capsys):
    data = data_path()
    candidates = tmp_path / "candidates.json"
    lexnet = tmp_path / "lexnet.json"
    validated = tmp_path / "validated.json"
    main(["extract", "--corpus", str(data / "corpus"), "--lexicon", str(data / "lexicon.tsv"),
          "--patterns", str(data / "patterns.txt"), "--out", str(candidates)])
    main(["net", "--candidates", str(candidates), "--corpus", str(data / "corpus"),
          "--lexicon", str(data / "lexicon.tsv"), "--out", str(lexnet)])
    capsys.readouterr()
    assert main(["validate", "--lexnet", str(lexnet), "--decisions", str(data / "decisions.txt"),
                 "--out", str(validated), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["term_statuses"]["VALIDATED"] == 5
    assert report["contradictions"] == []


def test_cli_fixture_path(capsys):
    assert main(["fixture-path"]) == 0
    out = capsys.readouterr().out.strip()
    assert (Path(out) / "relais.dsl").exists()
