#!/usr/bin/env python3
"""d2lint — protocol-invariant checker for the d2tree message, WAL, and
lock layers.

Two backends produce the same facts IR:
  text   token-stream extraction (no dependencies; the reference backend,
         always on)
  clang  `clang++ -ast-dump=json` over compile_commands.json (type-aware;
         cross-validates the textual facts — disagreements are
         `backend-drift` findings)

Rules: exhaustive-switch, registry, codec-bound, discarded-result,
lock-decl, backend-drift. See tools/d2lint/README.md and DESIGN.md §11.

Findings ratchet against tools/d2lint/baseline.txt exactly like the
clang-tidy wall: any finding not in the baseline fails the run; fixed
baseline entries are reported so the baseline only shrinks.

Usage:
  d2lint.py                          lint the repo (text backend)
  d2lint.py --backend clang          also run the clang AST backend
  d2lint.py --backend auto           clang if available, else text only
  d2lint.py --self-test              run the fixture corpus
  d2lint.py --update-baseline        rewrite the baseline from findings
  d2lint.py --list                   dump the extracted fact summary
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from d2lint_lib import clangextract, rules, textextract  # noqa: E402
from d2lint_lib.config import config_from_json, default_config  # noqa: E402
from d2lint_lib.facts import FactDb  # noqa: E402

_EXTS = (".h", ".hpp", ".cpp", ".cc")


def _collect_files(repo: str, roots: list) -> list:
    files: list = []
    for root in roots:
        top = os.path.join(repo, root)
        if os.path.isfile(top) and top.endswith(_EXTS):
            files.append(root)
            continue
        for dirpath, dirnames, names in os.walk(top):
            dirnames[:] = [d for d in sorted(dirnames)
                           if not d.startswith(".") and d != "build"]
            for name in sorted(names):
                if name.endswith(_EXTS):
                    rel = os.path.relpath(os.path.join(dirpath, name), repo)
                    files.append(rel.replace(os.sep, "/"))
    return sorted(set(files))


def scan_tree(repo: str, cfg, roots: list | None = None) -> FactDb:
    db = FactDb()
    for rel in _collect_files(repo, roots or cfg.roots):
        try:
            with open(os.path.join(repo, rel), encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            print(f"d2lint: cannot read {rel}: {e}", file=sys.stderr)
            continue
        db.merge(textextract.scan_file(rel, text, cfg))
    return db


def load_baseline(path: str) -> list:
    if not os.path.isfile(path):
        return []
    with open(path, encoding="utf-8") as f:
        return [ln.rstrip("\n") for ln in f
                if ln.strip() and not ln.lstrip().startswith("#")]


def ratchet(findings: list, baseline_path: str) -> int:
    """run_clang_tidy.sh semantics: new findings fail, fixed baseline
    entries are surfaced so the wall only moves one way."""
    baseline = set(load_baseline(baseline_path))
    rendered = [f.render() for f in findings]
    new = [r for r in rendered if r not in baseline]
    fixed = sorted(baseline - set(rendered))
    for r in rendered:
        marker = "NEW" if r in new else "baselined"
        print(f"  [{marker}] {r}")
    if fixed:
        print(f"d2lint: {len(fixed)} baselined finding(s) no longer fire "
              f"— shrink {baseline_path}:")
        for r in fixed:
            print(f"  [fixed] {r}")
    if new:
        print(f"d2lint: FAILED — {len(new)} new finding(s) not in "
              f"{baseline_path}", file=sys.stderr)
        return 1
    print(f"d2lint: OK — {len(rendered)} finding(s), all baselined "
          f"({len(baseline)} in baseline)")
    return 0


def write_baseline(findings: list, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("# d2lint baseline — one normalized finding per line.\n"
                "# Ratchet: new findings fail CI; fix findings and delete\n"
                "# their lines. Never add lines for new code.\n")
        for r in sorted(f2.render() for f2 in findings):
            f.write(r + "\n")


def list_facts(db: FactDb) -> None:
    print(f"files scanned: {len(db.files)}")
    for name, e in sorted(db.enums.items()):
        print(f"enum {name} ({e.file}:{e.line}): {len(e.names)} "
              f"enumerators, last={e.last}")
    proto = [s for s in db.switches if s.enum]
    print(f"switches with resolved enum: {len(proto)}")
    for s in sorted(proto, key=lambda s: (s.file, s.line)):
        d = (f" default@{s.default_line}"
             f"{' (allowed: ' + s.default_reason + ')' if s.default_reason else ''}"
             if s.has_default else "")
        print(f"  {s.file}:{s.line} switch({s.enum}) "
              f"{len(s.cases)} cases{d} [{s.source}]")
    print(f"must-use functions: {len(db.must_use)}")
    for name, fn in sorted(db.must_use.items()):
        nd = " [[nodiscard]]" if fn.nodiscard else ""
        print(f"  {fn.ret}{nd} {name}() ({fn.file}:{fn.line})")
    print(f"discarded calls recorded: {len(db.discarded_calls)}")
    for c in sorted(db.discarded_calls, key=lambda c: (c.file, c.line)):
        how = "(void)" if c.void_cast else \
            (f"allow-discard({c.reason})" if c.reason else "bare")
        print(f"  {c.file}:{c.line} {c.callee}() {how}")
    print(f"mutex members: {len(db.mutexes)}")
    for m in sorted(db.mutexes, key=lambda m: (m.file, m.line)):
        print(f"  {m.file}:{m.line} {m.qualified} ({m.type}) "
              f"rank={m.rank}")
    print(f"enum upper bounds: {len(db.bounds)}")
    for b in sorted(db.bounds, key=lambda b: (b.file, b.line)):
        print(f"  {b.file}:{b.line} {b.enum}::{b.enumerator} "
              f"({b.context})")


def run_self_test(fixtures_dir: str) -> int:
    """Each fixture dir: C++ sources + config.json + expected.txt (sorted
    rendered findings; empty file = must be clean)."""
    failures = 0
    cases = sorted(d for d in os.listdir(fixtures_dir)
                   if os.path.isdir(os.path.join(fixtures_dir, d)))
    if not cases:
        print("d2lint --self-test: no fixtures found", file=sys.stderr)
        return 1
    for case in cases:
        cdir = os.path.join(fixtures_dir, case)
        cfg_path = os.path.join(cdir, "config.json")
        if os.path.isfile(cfg_path):
            with open(cfg_path, encoding="utf-8") as f:
                cfg = config_from_json(json.load(f))
        else:
            cfg = default_config()
            cfg.roots = ["."]
            cfg.lock_roots = ["."]
        db = scan_tree(cdir, cfg)
        findings = rules.run_all(db, cfg, cdir)
        got = sorted(f.render() for f in findings)
        want_path = os.path.join(cdir, "expected.txt")
        want = sorted(load_baseline(want_path))
        if got == want:
            print(f"  PASS {case} ({len(got)} finding(s))")
            continue
        failures += 1
        print(f"  FAIL {case}", file=sys.stderr)
        for line in want:
            if line not in got:
                print(f"    missing: {line}", file=sys.stderr)
        for line in got:
            if line not in want:
                print(f"    unexpected: {line}", file=sys.stderr)
    total = len(cases)
    if failures:
        print(f"d2lint --self-test: FAILED ({failures}/{total})",
              file=sys.stderr)
        return 1
    print(f"d2lint --self-test: OK ({total} fixtures)")
    return 0


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    default_repo = os.path.abspath(os.path.join(here, "..", ".."))
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repo", default=default_repo,
                    help="repository root (default: two levels up)")
    ap.add_argument("--backend", choices=["text", "clang", "auto"],
                    default="text",
                    help="fact extraction backend(s); clang cross-"
                         "validates the textual facts (default: text)")
    ap.add_argument("--compdb", default="",
                    help="compile_commands.json for the clang backend "
                         "(default: <repo>/build/compile_commands.json)")
    ap.add_argument("--baseline", default="",
                    help="baseline file (default: tools/d2lint/"
                         "baseline.txt)")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline from this run's findings")
    ap.add_argument("--root", action="append", default=[],
                    help="override scanned roots (repeatable)")
    ap.add_argument("--tu-filter", default="",
                    help="substring filter on clang translation units")
    ap.add_argument("--list", action="store_true",
                    help="dump extracted facts instead of checking")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture corpus under fixtures/")
    args = ap.parse_args()

    if args.self_test:
        return run_self_test(os.path.join(here, "fixtures"))

    repo = os.path.abspath(args.repo)
    cfg = default_config()
    roots = args.root or cfg.roots
    text_db = scan_tree(repo, cfg, roots)

    clang_db = None
    if args.backend in ("clang", "auto"):
        compdb = args.compdb or os.path.join(repo, "build",
                                             "compile_commands.json")
        clang = clangextract.find_clang()
        if clang is None or not os.path.isfile(compdb):
            why = ("clang not on PATH" if clang is None
                   else f"no compile db at {compdb}")
            if args.backend == "clang":
                print(f"d2lint: clang backend unavailable: {why}",
                      file=sys.stderr)
                return 2
            print(f"d2lint: note: clang backend skipped ({why}); "
                  f"textual facts are unchecked against the AST")
        else:
            clang_db, errors = clangextract.extract_from_compdb(
                repo, compdb, cfg, args.tu_filter)
            for e in errors:
                print(f"d2lint: warning: {e}", file=sys.stderr)

    if args.list:
        list_facts(text_db)
        if clang_db is not None:
            print("--- clang backend ---")
            list_facts(clang_db)
        return 0

    findings = rules.run_all(text_db, cfg, repo, clang_db)
    baseline = args.baseline or os.path.join(here, "baseline.txt")
    if args.update_baseline:
        write_baseline(findings, baseline)
        print(f"d2lint: wrote {len(findings)} finding(s) to {baseline}")
        return 0
    return ratchet(findings, baseline)


if __name__ == "__main__":
    sys.exit(main())
