"""The one-pass artifact decoders against the decoders they replaced, and
their failure paths through ``pipeline.read_artifact`` and the CLI."""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ontoterm.cli import main
from ontoterm.corpus import candidates_from_json, candidates_to_json
from ontoterm.errors import ArtifactError
from ontoterm.fixtures import data_path
from ontoterm.lexnet import Evidence, RelationKind, Status, lexnet_from_json, lexnet_to_json
from ontoterm.pipeline import PipelineConfig, read_artifact, run_pipeline

from genutil import (
    candidates_from_json_oracle,
    lexnet_from_json_oracle,
    random_candidates,
    random_lexnet,
)

DECODERS = {
    "candidates.json": (candidates_from_json, candidates_from_json_oracle, candidates_to_json),
    "lexnet.json": (lexnet_from_json, lexnet_from_json_oracle, lexnet_to_json),
    "lexnet_validated.json": (lexnet_from_json, lexnet_from_json_oracle, lexnet_to_json),
}


@pytest.fixture(scope="module")
def fixture_artifacts(tmp_path_factory) -> dict[str, str]:
    """The text of the fixture's decoded artifacts, by file name."""
    data = data_path()
    out = tmp_path_factory.mktemp("fixture") / "out"
    run_pipeline(PipelineConfig(
        corpus=data / "corpus", lexicon=data / "lexicon.tsv", patterns=data / "patterns.txt",
        dsl=data / "relais.dsl", decisions=data / "decisions.txt",
        stopwords=data / "stopwords.txt", output=out,
    ))
    names = [*DECODERS, "taxonomy.json", "doc_index.json"]
    return {name: (out / name).read_text(encoding="utf-8") for name in names}


def assert_decodes_like_the_oracle(text: str, name: str) -> None:
    decode, oracle, encode = DECODERS[name]
    got, expected = decode(text), oracle(text)
    assert got == expected
    if name == "candidates.json":
        assert [c.occurrences for c in got] == [c.occurrences for c in expected]
    else:
        assert list(got.terms) == list(expected.terms)
        assert list(got.relations) == list(expected.relations)
    assert encode(got) == text


def test_decoders_match_the_oracles_on_the_fixture(fixture_artifacts):
    for name in DECODERS:
        assert_decodes_like_the_oracle(fixture_artifacts[name], name)


def test_decoders_match_the_oracles_on_random_artifacts():
    rng = random.Random(20101114)
    seen: Counter = Counter()
    for _ in range(300):
        net = random_lexnet(rng)
        assert_decodes_like_the_oracle(lexnet_to_json(net), "lexnet.json")
        candidates = random_candidates(rng)
        assert_decodes_like_the_oracle(candidates_to_json(candidates), "candidates.json")
        seen["empty network"] += not net.terms
        for term in net.terms.values():
            seen[term.status] += 1
        for rel in net.relations.values():
            seen.update({rel.kind, rel.status, *rel.evidence_sources})
            seen["multi-source evidence"] += len(rel.evidence_sources) > 1
        for candidate in candidates:
            seen["one occurrence" if candidate.frequency == 1 else "many occurrences"] += 1
    covered = [*Status, *RelationKind, *Evidence, "empty network", "multi-source evidence",
               "one occurrence", "many occurrences"]
    assert all(seen[key] >= 10 for key in covered), seen


# --- failure paths ---------------------------------------------------------------


def _positions(value, path=()):
    """Every (container path, key) of a decoded JSON value, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        yield path, key
        if isinstance(item, (dict, list)):
            yield from _positions(item, (*path, key))


@st.composite
def mutated(draw, text: str) -> str:
    """``text`` truncated, or with one value dropped, retyped to a list, an
    int or null, or replaced by a string that names no enum member."""
    if draw(st.booleans()):
        return text[:draw(st.integers(0, len(text) - 1))]
    payload = json.loads(text)
    positions = list(_positions(payload))
    if not positions:
        return "null"
    path, key = draw(st.sampled_from(positions))
    container = payload
    for step in path:
        container = container[step]
    mutation = draw(st.sampled_from(["drop", "list", "int", "null", "unknown"]))
    if mutation == "drop":
        del container[key]
    else:
        container[key] = {"list": [], "int": 7, "null": None, "unknown": "MAYBE"}[mutation]
    return json.dumps(payload, ensure_ascii=False)


@pytest.mark.parametrize("name", sorted(DECODERS))
def test_mutated_artifacts_decode_or_raise_artifact_error(fixture_artifacts, tmp_path_factory,
                                                          name):
    decode = DECODERS[name][0]
    path = tmp_path_factory.mktemp("mutated") / name

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mutated(fixture_artifacts[name]))
    def decodes_or_raises_artifact_error(text):
        path.write_text(text, encoding="utf-8")
        try:
            read_artifact(path, decode)
        except ArtifactError as exc:
            assert str(exc).startswith(f"{path}: malformed artifact")

    decodes_or_raises_artifact_error()


def test_cli_validate_on_an_unknown_status_is_exit_2_without_traceback(tmp_path, capsys):
    lexnet = tmp_path / "lexnet.json"
    lexnet.write_text(json.dumps({
        "terms": [{"label": "relais", "head": "relais", "status": "MAYBE"}], "relations": [],
    }), encoding="utf-8")
    argv = ["validate", "--lexnet", str(lexnet), "--decisions", str(data_path("decisions.txt")),
            "--out", str(tmp_path / "validated.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ontoterm: E_ARTIFACT: {lexnet}: malformed artifact (")
    assert "MAYBE" in err and "Traceback" not in err
    assert not Path(tmp_path / "validated.json").exists()


#: The read commands that decode ``taxonomy.json`` or ``doc_index.json``,
#: given the paths of the two.
_READ_COMMANDS = {
    "query-projected": lambda taxonomy, index: [
        "query", "--index", index, "--structure", "projected", "--taxonomy", taxonomy,
        "--concept", "relais à seuil"],
    "query-ok": lambda taxonomy, index: [
        "query", "--index", index, "--structure", "ok", "--dsl", str(data_path("relais.dsl")),
        "--concept", "relais à seuil"],
    "compare-recall": lambda taxonomy, index: [
        "compare-recall", "--index", index, "--taxonomy", taxonomy,
        "--dsl", str(data_path("relais.dsl")), "--concept", "relais à seuil"],
    "align": lambda taxonomy, index: [
        "align", "--taxonomy", taxonomy, "--dsl", str(data_path("relais.dsl"))],
}


@pytest.mark.parametrize("command, name", [
    (command, name) for command in _READ_COMMANDS for name in ("taxonomy.json", "doc_index.json")
    if (command, name) not in {("query-ok", "taxonomy.json"), ("align", "doc_index.json")}
])
def test_read_commands_on_mutated_artifacts_exit_0_or_2_without_traceback(
    fixture_artifacts, tmp_path_factory, capsys, command, name
):
    """``taxonomy_from_json`` and ``index_from_json_obj`` through the CLI:
    a mutated artifact is read, or refused as ``E_ARTIFACT`` with exit 2,
    naming the file, and no other exception escapes ``main``.  It fails
    when a taxonomy decodes a concept label or denoting term that is not a
    string, which ``align`` sorts and hashes, or when an annotation's
    source is refused without the file's name."""
    directory = tmp_path_factory.mktemp("mutated")
    paths = {artifact: directory / artifact for artifact in ("taxonomy.json", "doc_index.json")}
    for artifact, path in paths.items():
        path.write_text(fixture_artifacts[artifact], encoding="utf-8")
    argv = _READ_COMMANDS[command](str(paths["taxonomy.json"]), str(paths["doc_index.json"]))
    assert main(argv) == 0
    capsys.readouterr()
    seen: Counter = Counter()

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mutated(fixture_artifacts[name]))
    def exits_0_or_2_without_traceback(text):
        paths[name].write_text(text, encoding="utf-8")
        status = main(argv)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if status == 0:
            seen["read"] += 1
            return
        assert status == 2 and err.startswith(f"ontoterm: E_ARTIFACT: {paths[name]}: "), err
        seen["refused"] += 1

    exits_0_or_2_without_traceback()
    assert seen["read"] and seen["refused"], seen
