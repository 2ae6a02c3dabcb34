from __future__ import annotations

import hashlib
import json
import shutil
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ontoterm import pipeline
from ontoterm.cli import main
from ontoterm.corpus import load_corpus
from ontoterm.errors import ConfigError, InconsistentOntologyError, json_text
from ontoterm.fixtures import data_path
from ontoterm.pipeline import STAGES, load_config, parse_config, run_pipeline

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


# --- config -------------------------------------------------------------------


def test_config_missing_key_names_it(tmp_path):
    config = tmp_path / "c.toml"
    config.write_text('corpus = "corpus"\n', encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_config(config)
    assert str(exc.value) == "lexicon"


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


def test_config_bad_line(tmp_path):
    with pytest.raises(ConfigError):
        parse_config("corpus\n", tmp_path)


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


def test_json_text_reencodes_every_fixture_artifact(tmp_path):
    result = run_pipeline(load_config(write_config(tmp_path)))
    paths = [p for p in result.artifacts if p.suffix == ".json"]
    paths.append(result.output_dir / "manifest.json")
    assert len(paths) == 8
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert json_text(json.loads(text)) == text, path.name


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
    [b'{"stages": {"extract"', b"\xff\xfe\x00", b"[]", b'{"stages": []}', b'{"stages": {"net": 1}}'],
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


@pytest.mark.parametrize("stage", ["extract", "index"])
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


def spy_on_run(monkeypatch, out: Path, corpus: Path | None = None) -> Counter:
    """Count corpus reads and loads, annotated documents, hashed paths,
    decoded artifacts, files read under ``out`` and, keyed ("corpus",
    relative path), reads of files under ``corpus`` while the pipeline runs."""
    calls: Counter = Counter()

    def spy(name, key):
        inner = getattr(pipeline, name)

        def wrapped(*args, **kwargs):
            calls[key(*args)] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, wrapped)

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
            elif corpus is not None and corpus in path.parents:
                calls[("corpus", str(path.relative_to(corpus)))] += 1
            return inner(path, *args, **kwargs)

        monkeypatch.setattr(Path, method, read)
    return calls


def hashed(calls: Counter) -> dict[str, int]:
    return {key[1]: n for key, n in calls.items() if key[0] == "hash"}


def test_cold_run_loads_and_hashes_each_input_once_and_reads_nothing_back(tmp_path, monkeypatch):
    # the fixture corpus plus files the fingerprint covers and the loader skips
    corpus = tmp_path / "corpus"
    shutil.copytree(data_path("corpus"), corpus)
    (corpus / "notes").mkdir()
    (corpus / "notes" / "nested.txt").write_text("relais imbriqué\n", encoding="utf-8")
    (corpus / "README").write_text("pas un document\n", encoding="utf-8")
    config = load_config(write_config(tmp_path, corpus=str(corpus)))
    docs = [doc.id for doc in load_corpus(data_path("corpus"))]
    calls = spy_on_run(monkeypatch, config.output, corpus)
    run_pipeline(config)
    assert calls["read_corpus_files"] == 1
    assert calls["load_corpus"] == 1
    assert calls["hash_files"] == 1
    files = sorted(str(p.relative_to(corpus)) for p in corpus.rglob("*") if p.is_file())
    assert {key[1]: n for key, n in calls.items() if key[0] == "corpus"} == dict.fromkeys(files, 1)
    assert {doc: calls[("annotate", doc)] for doc in docs} == {doc: 1 for doc in docs}
    assert str(config.corpus) not in hashed(calls)
    assert set(hashed(calls).values()) == {1}
    assert not any(Path(path).parent == config.output for path in hashed(calls))
    assert calls["decode"] == 0
    assert {key for key in calls if key[0] in ("read_text", "read_bytes")} == {
        ("read_text", "manifest.json")
    }


def test_warm_run_decodes_only_the_ok_report(tmp_path, monkeypatch):
    config = load_config(write_config(tmp_path))
    run_pipeline(config)
    calls = spy_on_run(monkeypatch, config.output)
    result = run_pipeline(config)
    assert all(outcome.cache_hit for outcome in result.stages.values())
    assert calls["load_corpus"] == 0
    assert calls["decode"] == 0
    assert set(hashed(calls).values()) == {1}
    assert {key[1] for key in calls if key[0] == "read_text"} == {"manifest.json", "ok_report.json"}
    assert {key[1] for key in calls if key[0] == "read_bytes"} == EXPECTED_ARTIFACTS


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
    assert "E_CONFIG" in capsys.readouterr().err


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


def test_cli_stages_write_the_pipelines_bytes(tmp_path, capsys):
    data = data_path()
    config = load_config(write_config(tmp_path))
    run_pipeline(config)
    cli = tmp_path / "cli"
    cli.mkdir()
    inputs = ["--dsl", str(data / "relais.dsl"), "--stopwords", str(data / "stopwords.txt")]
    corpus = ["--corpus", str(data / "corpus"), "--lexicon", str(data / "lexicon.tsv")]
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
        ["index", "--corpus", str(data / "corpus"), "--candidates", str(cli / "candidates.json"),
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


@pytest.mark.parametrize("case, code", [
    ("project-missing", "E_IO"),
    ("ok-check-missing", "E_IO"),
    ("extract-missing-lexicon", "E_IO"),
    ("project-misshapen", "E_ARTIFACT"),
    ("query-misshapen-index", "E_ARTIFACT"),
    ("query-missing-index-side", "E_ARTIFACT"),
    ("compare-recall-missing-index-side", "E_ARTIFACT"),
    ("align-dangling-taxonomy-edge", "E_ARTIFACT"),
    ("query-cyclic-taxonomy", "E_ARTIFACT"),
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
    cyclic = tmp_path / "cyclic.json"
    cyclic.write_text(json.dumps({
        "concepts": [{"id": cid, "label": cid, "denoting_terms": [cid]} for cid in "abc"],
        "subsumption": [["b", "a"], ["a", "b"], ["c", "a"]],
    }), encoding="utf-8")
    projected_side = tmp_path / "projected_side.json"
    projected_side.write_text('{"projected": {"annotations": []}}', encoding="utf-8")
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
        "query-cyclic-taxonomy": ["query", "--index", str(projected_side), "--structure",
                                  "projected", "--concept", "c", "--taxonomy", str(cyclic)],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ontoterm: {code}: ")
    assert "Traceback" not in err
    if case == "query-cyclic-taxonomy":
        assert "subsumption cycle: a -> b -> a" in err


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
