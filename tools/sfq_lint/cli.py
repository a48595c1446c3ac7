"""sfq-lint v2 driver: per-file rules + whole-program passes.

Modes:
  python3 tools/sfq_lint.py [--root DIR]       lint the repository
  ... --check-file F --as PATH                 lint one file as if at PATH
  ... --files P1 P2 ...                        lint the listed repo-relative
                                               files + all repo-level passes
                                               (scripts/lint.sh --changed)
  ... --fixtures DIR                           fixture self-check
  ... --include-graph-root DIR                 run only the layer-DAG pass
                                               over DIR (DIR/layers.toml)
  ... --list-rules                             print the rule ids
  ... --json                                   one JSON object per finding
                                               (see docs/STATIC_ANALYSIS.md)

Exit status is 1 when any finding is reported, else 0, in every mode.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import hotpath, include_graph, locks, repo_rules
from .file_rules import CXX_EXTENSIONS, FileLinter
from .tokenizer import code_lines

RULE_IDS = [
    "row-seed",
    "raw-geometry",
    "nondet-random",
    "dropped-status",
    "raw-mutex",
    "unguarded-member",
    "concurrent-label",
    "nodiscard-decl",
    "failpoint-site",
    "server-opcode",
    "durable-write",
    "raw-frame",
    "simd-ifdef",
    "layer-dag",
    "lock-order",
    "blocking-under-lock",
    "hot-path",
]

# Directories deliberately outside the normal scan: fixtures are broken on
# purpose, probes deliberately drop a Status to prove the compiler rejects it.
EXCLUDED_DIRS = ("tests/lint_fixtures", "tests/nodiscard_probes")

SCAN_SUBDIRS = ("src", "tools", "tests", "bench", "examples")


def _load_spec(root):
    return include_graph.load_layers(
        os.path.join(root, "tools", "layers.toml"), "tools/layers.toml")


def _read(path):
    with open(path, encoding="utf-8") as f:
        text = f.read()
    return text.splitlines(), code_lines(text)


def _per_file_findings(rel, raw, code, status_methods, failpoint_sites, spec):
    linter = FileLinter(rel, "", status_methods, failpoint_sites)
    linter.lines, linter.code = raw, code  # precomputed views

    findings = linter.run()
    if rel.endswith(CXX_EXTENSIONS):
        findings += hotpath.check_file(rel, raw, code)
        findings += include_graph.check_file_back_edges(rel, raw, code, spec)
    return findings


def lint_repo(root, only_files=None):
    """Full lint. `only_files` restricts the per-file rules (--files mode);
    the whole-program passes always see the complete tree."""
    status_methods = repo_rules.scan_status_methods(root)
    failpoint_sites = repo_rules.scan_failpoint_sites(root)
    spec, layer_findings = _load_spec(root)
    findings = []

    if only_files is not None:
        targets = []
        for rel in only_files:
            rel = rel.replace(os.sep, "/")
            if rel.startswith(EXCLUDED_DIRS) or not rel.startswith(
                tuple(s + "/" for s in SCAN_SUBDIRS)
            ):
                continue
            if rel.endswith(CXX_EXTENSIONS) and os.path.exists(
                os.path.join(root, rel)
            ):
                targets.append(rel)
    else:
        targets = []
        for sub in SCAN_SUBDIRS:
            for path in repo_rules.walk_files(
                os.path.join(root, sub), CXX_EXTENSIONS
            ):
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                if not rel.startswith(EXCLUDED_DIRS):
                    targets.append(rel)

    lock_files = []
    for rel in targets:
        raw, code = _read(os.path.join(root, rel))
        findings += _per_file_findings(
            rel, raw, code, status_methods, failpoint_sites, spec)

    # The lock analyses always run over all of src/ — a cycle is a property
    # of the whole graph, not of the changed files.
    for path in repo_rules.walk_files(os.path.join(root, "src"),
                                      CXX_EXTENSIONS):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        raw, code = _read(path)
        lock_files.append((rel, raw, code))
    findings += locks.analyze(lock_files)

    findings += repo_rules.check_concurrent_label(
        os.path.join(root, "tests", "CMakeLists.txt"),
        os.path.join(root, "tests"),
        "tests/",
    )
    findings += repo_rules.check_server_opcode_registry(root)
    findings += repo_rules.check_nodiscard_decl(root)
    findings += include_graph.analyze(root, spec, layer_findings)
    return findings


def lint_one_file(root, file_path, pretend_path):
    """Single-file mode: per-file rules + the whole-program analyses scoped
    to this one file (so fixtures can exercise them)."""
    status_methods = repo_rules.scan_status_methods(root)
    failpoint_sites = repo_rules.scan_failpoint_sites(root)
    spec, _ = _load_spec(root)
    raw, code = _read(file_path)
    pretend = pretend_path.replace(os.sep, "/")
    findings = _per_file_findings(
        pretend, raw, code, status_methods, failpoint_sites, spec)
    if pretend.endswith(CXX_EXTENSIONS):
        findings += locks.analyze([(pretend, raw, code)])
    return findings


def run_fixtures(root, fixtures_dir):
    """Checks that every fixture fires exactly its declared findings.

    Each fixture file declares where it pretends to live and what must fire:
        // sfq-lint-path: src/core/broken.cc
        // sfq-lint-expect: row-seed
    A subdirectory with a CMakeLists.txt is a test-tree fixture for the
    concurrent-label rule; a subdirectory with a layers.toml is an
    include-graph fixture for the layer-dag rule (expectations live in
    `# sfq-lint-expect:` lines in the respective file). Exit status 0 means
    the linter behaved on every fixture -- both firing on what is broken
    and staying silent on everything else.
    """
    import re

    ok = True
    entries = sorted(os.listdir(fixtures_dir))
    for entry in entries:
        full = os.path.join(fixtures_dir, entry)
        if os.path.isdir(full) and os.path.exists(
            os.path.join(full, "layers.toml")
        ):
            with open(os.path.join(full, "layers.toml"),
                      encoding="utf-8") as f:
                text = f.read()
            expected = set(re.findall(r"#\s*sfq-lint-expect:\s*([\w-]+)",
                                      text))
            fired = {f.rule for f in lint_include_graph_root(full)}
        elif os.path.isdir(full) and os.path.exists(
            os.path.join(full, "CMakeLists.txt")
        ):
            with open(os.path.join(full, "CMakeLists.txt"),
                      encoding="utf-8") as f:
                text = f.read()
            expected = set(re.findall(r"#\s*sfq-lint-expect:\s*([\w-]+)",
                                      text))
            fired = {
                f.rule
                for f in repo_rules.check_concurrent_label(
                    os.path.join(full, "CMakeLists.txt"), full, entry + "/"
                )
            }
        elif entry.endswith(CXX_EXTENSIONS):
            with open(full, encoding="utf-8") as f:
                text = f.read()
            pretend = re.search(r"sfq-lint-path:\s*(\S+)", text)
            expected = set(re.findall(r"sfq-lint-expect:\s*([\w-]+)", text))
            if not pretend:
                print(f"FIXTURE ERROR {entry}: missing sfq-lint-path comment")
                ok = False
                continue
            fired = {
                f.rule for f in lint_one_file(root, full, pretend.group(1))
            }
        else:
            continue
        if fired == expected:
            print(f"fixture OK   {entry}: {sorted(fired) or ['(silent)']}")
        else:
            print(
                f"fixture FAIL {entry}: expected {sorted(expected)}, "
                f"got {sorted(fired)}"
            )
            ok = False
    return ok


def lint_include_graph_root(graph_root):
    """Layer-DAG pass only, over an arbitrary root (fixtures, tests)."""
    spec, layer_findings = include_graph.load_layers(
        os.path.join(graph_root, "layers.toml"), "layers.toml")
    return include_graph.analyze(graph_root, spec, layer_findings,
                                 toml_rel="layers.toml")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None, help="repository root")
    parser.add_argument("--check-file", help="lint a single file")
    parser.add_argument(
        "--as", dest="pretend", help="pretend path for --check-file"
    )
    parser.add_argument(
        "--files", nargs="*", default=None,
        help="repo-relative files for the per-file rules (--changed mode); "
        "whole-program passes still see the full tree",
    )
    parser.add_argument("--fixtures", help="run the fixture self-check")
    parser.add_argument(
        "--include-graph-root",
        help="run only the layer-DAG pass over this root (its layers.toml)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit one JSON object per finding instead of text",
    )
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        print("\n".join("sfq-" + r for r in RULE_IDS))
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )

    if args.fixtures:
        return 0 if run_fixtures(root, args.fixtures) else 1

    if args.include_graph_root:
        findings = lint_include_graph_root(args.include_graph_root)
    elif args.check_file:
        pretend = args.pretend or os.path.relpath(args.check_file, root)
        findings = lint_one_file(root, args.check_file, pretend)
    elif args.files is not None:
        findings = lint_repo(root, only_files=args.files)
    else:
        findings = lint_repo(root)

    if args.json:
        for f in findings:
            print(f.render_json())
        return 1 if findings else 0

    for f in findings:
        print(f.render())
    if findings:
        print(f"sfq-lint: {len(findings)} finding(s)")
        return 1
    print("sfq-lint: OK")
    return 0
