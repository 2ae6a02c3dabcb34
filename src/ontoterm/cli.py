"""Command-line interface.

Each pipeline stage is also a standalone subcommand that reads the prior
stage's JSON, so any step can be rerun or inspected in isolation.  Exit
codes: 0 ok, 1 usage or configuration error, 2 stage failure (an
unreadable file is ``E_IO``, an input file that is not UTF-8
``E_ENCODING``, a malformed artifact ``E_ARTIFACT``), 3 consistency
violations.  ``ONTOTERM_NO_COLOR`` disables ANSI colors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .errors import ConfigError, InconsistentOntologyError, OntoTermError, json_text
from .export import DEFAULT_IRI
from .fixtures import data_path
from .okmodel import load_dsl
from .pipeline import (
    RunValues,
    load_config,
    read_artifact,
    render_align,
    render_export,
    render_extract,
    render_index,
    render_net,
    render_ok_check,
    render_project,
    render_validate,
    run_pipeline,
)
from .projection import taxonomy_to_dot
from .retrieval import (
    compare_recall,
    comparison_to_json,
    index_from_json_obj,
    query,
    resolve_label,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STAGE = 2
EXIT_INCONSISTENT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _color_enabled() -> bool:
    return sys.stdout.isatty() and not os.environ.get("ONTOTERM_NO_COLOR")


def _paint(text: str, good: bool) -> str:
    if not _color_enabled():
        return text
    return f"\033[32m{text}\033[0m" if good else f"\033[31m{text}\033[0m"


def _render_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _values(args, **sources) -> RunValues:
    """The run values of one subcommand: each path argument names the input
    of the same name (``sources`` renames the others)."""
    return RunValues({**vars(args), **sources})


# ---------------------------------------------------------------------------
# subcommands


def cmd_extract(args) -> int:
    _emit(render_extract(_values(args)), args.out)
    return EXIT_OK


def cmd_net(args) -> int:
    _emit(render_net(_values(args)), args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    values = _values(args, network=args.lexnet)
    Path(args.out).write_text(render_validate(values), encoding="utf-8")
    updated = values["validated"]
    contradictions = updated.contradictions()
    statuses = {}
    for term in updated.terms.values():
        statuses[term.status.value] = statuses.get(term.status.value, 0) + 1
    report = {"term_statuses": statuses, "contradictions": [list(p) for p in contradictions]}
    if args.format == "json":
        sys.stdout.write(json_text(report))
    else:
        rows = [[a, b] for a, b in contradictions]
        print(f"terms: {statuses}")
        if rows:
            print("mutual hyponymy left to the expert:")
            print(_render_table(["term a", "term b"], rows))
    return EXIT_OK


def cmd_project(args) -> int:
    values = _values(args, validated=args.lexnet)
    _emit(render_project(values), args.out)
    if args.dot:
        Path(args.dot).write_text(taxonomy_to_dot(values["taxonomy"]), encoding="utf-8")
    return EXIT_OK


def cmd_ok_check(args) -> int:
    values = _values(args)
    text = render_ok_check(values)
    violations = values["ok_report"]["violations"]
    if args.format == "json":
        sys.stdout.write(text)
    else:
        if violations:
            print(_render_table(["rule", "violation"], [[v["rule"], v["message"]] for v in violations]))
        print(_paint("consistent" if not violations else f"{len(violations)} violations", not violations))
    return EXIT_OK if not violations else EXIT_INCONSISTENT


def cmd_align(args) -> int:
    values = _values(args)
    text = render_align(values)
    if args.out or args.format == "json":
        _emit(text, args.out)
    if args.format == "table":
        alignments, report = values["alignments"], values["discrepancies"]
        rows = [
            [r.term, r.kind.value, r.concept or ", ".join(r.candidates) or "-"]
            for r in alignments.values()
        ]
        print(_render_table(["term", "kind", "concept"], sorted(rows)))
        verdict_rows = [
            [e.term, e.projected_parent or "-", " -> ".join(e.ok_parent_chain) or "-", e.verdict.value]
            for e in sorted(report.entries, key=lambda e: e.term)
        ]
        print()
        print(_render_table(["term", "projected parent", "expert genus chain", "verdict"], verdict_rows))
    return EXIT_OK


def cmd_index(args) -> int:
    _emit(render_index(_values(args)), args.out)
    return EXIT_OK


def _load_index_sides(path: str, *sides: str):
    """The doc index's ``sides``, decoded from one read of ``path``."""
    def decode(text: str):
        payload = json.loads(text)
        return [index_from_json_obj(payload[side]) for side in sides]

    return read_artifact(path, decode)


def cmd_query(args) -> int:
    values = _values(args)
    if args.structure == "projected":
        if not args.taxonomy:
            raise ConfigError("query --structure projected needs --taxonomy")
        structure = values["taxonomy"]
    else:
        if not args.dsl:
            raise ConfigError("query --structure ok needs --dsl")
        structure = load_dsl(args.dsl)
    (index,) = _load_index_sides(args.index, args.structure)
    concept = resolve_label(structure, args.concept, values["stopwords"])
    if concept is None:
        raise OntoTermError(f"concept not found in {args.structure} structure: {args.concept!r}")
    docs = sorted(query(index, structure, concept))
    if args.format == "json":
        sys.stdout.write(json_text({"concept": concept, "documents": docs}))
    else:
        print(f"concept: {concept}")
        for doc in docs:
            print(doc)
    return EXIT_OK


def cmd_compare_recall(args) -> int:
    values = _values(args)
    ontology = load_dsl(args.dsl)
    index_projected, index_ok = _load_index_sides(args.index, "projected", "ok")
    comparison = compare_recall(
        index_projected, values["taxonomy"], index_ok, ontology, args.concept, values["stopwords"]
    )
    if args.format == "json":
        sys.stdout.write(comparison_to_json(comparison))
    else:
        rows = []
        for doc in sorted(set(comparison.docs_a) | set(comparison.docs_b)):
            rows.append([
                doc,
                "x" if doc in comparison.docs_a else "",
                "x" if doc in comparison.docs_b else "",
                "; ".join(comparison.explanations[doc]["b"] or comparison.explanations[doc]["a"]),
            ])
        print(_render_table(["document", "projected", "ok", "via concept"], rows))
        print(f"symmetric difference: {list(comparison.symmetric_difference)}")
    return EXIT_OK


def cmd_export(args) -> int:
    _emit(render_export(_values(args, export_format=args.format)), args.out)
    return EXIT_OK


def cmd_run(args) -> int:
    config = load_config(args.config)
    if args.output:
        config = replace(config, output=Path(args.output))
    result = run_pipeline(config, force=args.force)
    hits = sum(1 for s in result.stages.values() if s.cache_hit)
    print(f"{len(result.stages)} stages, {hits} cache hits -> {result.output_dir}")
    return EXIT_OK


def cmd_fixture_path(args) -> int:
    print(data_path())
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="ontoterm", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ontoterm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("extract", cmd_extract, "extract term candidates from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicon")
    p.add_argument("--patterns")
    p.add_argument("--out")

    p = add("net", cmd_net, "build the lexical network from candidates")
    p.add_argument("--candidates", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicon")
    p.add_argument("--synonyms")
    p.add_argument("--out")

    p = add("validate", cmd_validate, "apply expert decisions to a network")
    p.add_argument("--lexnet", required=True)
    p.add_argument("--decisions", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "table"), default="table")

    p = add("project", cmd_project, "project the validated network into a taxonomy")
    p.add_argument("--lexnet", required=True)
    p.add_argument("--out")
    p.add_argument("--dot", help="also write a Graphviz rendering")

    p = add("ok-check", cmd_ok_check, "check an expert ontology for consistency")
    p.add_argument("--dsl", required=True)
    p.add_argument("--format", choices=("json", "table"), default="table")

    p = add("align", cmd_align, "align taxonomy terms with expert concepts")
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--dsl", required=True)
    p.add_argument("--stopwords")
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "table"), default="json")

    p = add("index", cmd_index, "index documents under both structures")
    p.add_argument("--corpus", required=True)
    p.add_argument("--candidates", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--dsl", required=True)
    p.add_argument("--stopwords")
    p.add_argument("--out")

    p = add("query", cmd_query, "retrieve documents for a concept")
    p.add_argument("--index", required=True)
    p.add_argument("--structure", choices=("projected", "ok"), required=True)
    p.add_argument("--concept", required=True)
    p.add_argument("--taxonomy", help="taxonomy JSON (projected structure)")
    p.add_argument("--dsl", help="ontology source (ok structure)")
    p.add_argument("--stopwords")
    p.add_argument("--format", choices=("json", "table"), default="table")

    p = add("compare-recall", cmd_compare_recall, "diff one query across both structures")
    p.add_argument("--index", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--dsl", required=True)
    p.add_argument("--concept", required=True)
    p.add_argument("--stopwords")
    p.add_argument("--format", choices=("json", "table"), default="table")

    p = add("export", cmd_export, "emit the expert ontology as OWL or KIF")
    p.add_argument("--dsl", required=True)
    p.add_argument("--format", choices=("owl", "kif"), required=True)
    p.add_argument("--iri", default=DEFAULT_IRI)
    p.add_argument("--out")

    p = add("run", cmd_run, "run the whole pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--output", help="override the configured output directory")
    p.add_argument("--force", action="store_true", help="ignore cached stage artifacts")

    add("fixture-path", cmd_fixture_path, "print the bundled fixture directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"ontoterm: {exc.code}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InconsistentOntologyError as exc:
        print(f"ontoterm: {exc.code}: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except OntoTermError as exc:
        print(f"ontoterm: {exc.code}: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except OSError as exc:
        print(f"ontoterm: E_IO: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
