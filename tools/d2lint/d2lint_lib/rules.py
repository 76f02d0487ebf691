"""d2lint check modules: FactDb → findings.

Rules (DESIGN.md §11 has the catalog):
  exhaustive-switch  every switch over a protocol enum names every
                     enumerator or carries an annotated default
  registry           every enumerator of a registered enum appears in its
                     codec/fold/test registry files
  codec-bound        a `static_cast<..>(Enum::kX)` used as an upper bound
                     must name the final enumerator (decoder range guards
                     and loop bounds go stale when an enum grows)
  discarded-result   calls returning Delivery/DeliveryError/DecodeStatus
                     or a [[nodiscard]] value must not be dropped
  lock-decl          the mutex members d2lint extracts must agree with
                     scripts/check_lock_order.py's regex parser (members,
                     ranks) — the rank DAG is only as good as its parser
  backend-drift      when the clang AST backend runs, its switch/mutex
                     facts must agree with the textual extraction
"""

from __future__ import annotations

import importlib.util
import os

from .config import Config
from .facts import FactDb, Finding


def check_exhaustive_switch(db: FactDb, cfg: Config) -> list:
    findings: list = []
    for sw in db.switches:
        if not sw.enum or not cfg.is_protocol(sw.enum):
            continue
        enum = db.enums.get(sw.enum)
        if sw.has_default and not sw.default_reason:
            findings.append(Finding(
                sw.file, sw.default_line or sw.line, "exhaustive-switch",
                f"bare `default:` in switch over {sw.enum} — enumerate "
                f"every case or annotate "
                f"`// d2lint: allow-default(<reason>)` so adding an "
                f"enumerator cannot be silently absorbed"))
        if not sw.has_default and enum is not None:
            missing = [n for n in enum.names if n not in sw.cases]
            if missing:
                findings.append(Finding(
                    sw.file, sw.line, "exhaustive-switch",
                    f"switch over {sw.enum} missing enumerator"
                    f"{'s' if len(missing) > 1 else ''}: "
                    + ", ".join(missing)))
    return findings


def check_registry(db: FactDb, cfg: Config) -> list:
    findings: list = []
    for reg in cfg.registries:
        enum = db.enums.get(reg.enum)
        if enum is None:
            continue
        matched_files = [f for f in db.files if reg.matches(f)]
        if not matched_files:
            findings.append(Finding(
                enum.file, enum.line, "registry",
                f"registry '{reg.name}' for {reg.enum} matched no scanned "
                f"files (patterns: {', '.join(reg.patterns)}) — config or "
                f"tree layout drifted"))
            continue
        present = {l.enumerator for l in db.literals
                   if l.enum == reg.enum and reg.matches(l.file)}
        for name, line in enum.enumerators:
            if name not in present:
                findings.append(Finding(
                    enum.file, line, "registry",
                    f"{reg.enum}::{name} does not appear in registry "
                    f"'{reg.name}' ({', '.join(reg.patterns)}) — "
                    f"{reg.why}"))
    return findings


def check_codec_bound(db: FactDb, cfg: Config) -> list:
    findings: list = []
    for b in db.bounds:
        enum = db.enums.get(b.enum)
        if enum is None or not cfg.is_protocol(b.enum):
            continue
        if getattr(b, "reason", ""):
            continue
        if b.enumerator != enum.last:
            findings.append(Finding(
                b.file, b.line, "codec-bound",
                f"upper bound names {b.enum}::{b.enumerator} "
                f"({b.context}) but the final enumerator is "
                f"{b.enum}::{enum.last} — this range guard/loop went "
                f"stale when the enum grew"))
    return findings


def check_discarded_result(db: FactDb, cfg: Config) -> list:
    findings: list = []
    for call in db.discarded_calls:
        fn = db.must_use.get(call.callee)
        if fn is None:
            continue
        if call.void_cast or call.reason:
            continue
        if call.callee in db.void_decls:
            # The name also has a void-returning declaration (method name
            # collision, e.g. RunningStats::Add vs SSTableBuilder::Add);
            # the text backend cannot type-resolve the receiver. The clang
            # backend and the compiler's own -Wunused-result cover these.
            continue
        if any(call.file.startswith(p) for p in cfg.discard_exempt):
            continue
        findings.append(Finding(
            call.file, call.line, "discarded-result",
            f"result of {call.callee}() ({fn.ret}, declared "
            f"{fn.file}:{fn.line}) is silently dropped — consume it, "
            f"`(void)`-cast it, or annotate "
            f"`// d2lint: allow-discard(<reason>)`"))
    return findings


def _load_lock_order_module(repo: str, script_rel: str):
    path = os.path.join(repo, script_rel)
    if not os.path.isfile(path):
        return None
    spec = importlib.util.spec_from_file_location("check_lock_order", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def check_lock_decls(db: FactDb, cfg: Config, repo: str) -> list:
    """Cross-validate the rank-DAG linter's regex parser against d2lint's
    extraction over the same files."""
    mod = _load_lock_order_module(repo, cfg.lock_order_script)
    if mod is None:
        return []
    in_scope = [f for f in db.files
                if any(r in (".", "") or f == r
                       or f.startswith(r.rstrip("/") + "/")
                       for r in cfg.lock_roots)]
    regex_locks: dict = {}
    for rel in in_scope:
        try:
            with open(os.path.join(repo, rel), encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            continue
        mod.parse_file(rel, text, regex_locks, [], [])

    ours = {m.qualified: m for m in db.mutexes if m.file in set(in_scope)}
    findings: list = []
    for qualified, m in sorted(ours.items()):
        theirs = regex_locks.get(qualified)
        if theirs is None:
            findings.append(Finding(
                m.file, m.line, "lock-decl",
                f"mutex member {qualified} ({m.type}) is invisible to "
                f"{cfg.lock_order_script}'s regex parser — its rank is "
                f"not enforced in the lock hierarchy DAG"))
        elif theirs.rank != m.rank:
            findings.append(Finding(
                m.file, m.line, "lock-decl",
                f"mutex member {qualified}: d2lint reads rank {m.rank} "
                f"but {cfg.lock_order_script} reads rank {theirs.rank} — "
                f"the two parsers disagree on the declaration"))
    for qualified, lk in sorted(regex_locks.items()):
        if qualified not in ours:
            findings.append(Finding(
                lk.file, lk.line, "lock-decl",
                f"mutex member {qualified} is seen by "
                f"{cfg.lock_order_script} but not by d2lint's extractor "
                f"— one of the parsers mis-reads the declaration"))
    return findings


def check_backend_drift(text_db: FactDb, clang_db: FactDb,
                        cfg: Config) -> list:
    """Clang AST facts vs textual facts for the files clang parsed."""
    findings: list = []
    clang_files = set(clang_db.files) | {s.file for s in clang_db.switches}
    clang_files |= {m.file for m in clang_db.mutexes}

    text_sw = {(s.file, s.line): s for s in text_db.switches
               if s.enum and cfg.is_protocol(s.enum)}
    clang_sw = {(s.file, s.line): s for s in clang_db.switches
                if s.enum and cfg.is_protocol(s.enum)}
    for key, cs in sorted(clang_sw.items()):
        ts = text_sw.get(key)
        if ts is None:
            findings.append(Finding(
                cs.file, cs.line, "backend-drift",
                f"clang sees a switch over {cs.enum} here that the "
                f"textual backend did not classify (no enum-qualified "
                f"case labels?) — textual exhaustiveness checking has a "
                f"blind spot at this site"))
        elif ts.enum != cs.enum or ts.cases != cs.cases:
            findings.append(Finding(
                cs.file, cs.line, "backend-drift",
                f"switch facts disagree: text({ts.enum}: "
                f"{len(ts.cases)} cases) vs clang({cs.enum}: "
                f"{len(cs.cases)} cases)"))
    for key, ts in sorted(text_sw.items()):
        if ts.file in clang_files and key not in clang_sw:
            findings.append(Finding(
                ts.file, ts.line, "backend-drift",
                f"textual backend classified a switch over {ts.enum} "
                f"here but clang did not report it — textual "
                f"misclassification or preprocessor-disabled code"))

    text_mx = {(m.file, m.member, m.cls) for m in text_db.mutexes}
    for m in clang_db.mutexes:
        if m.file in {f for f, *_ in text_mx} or True:
            if (m.file, m.member, m.cls) not in text_mx and \
                    m.file in set(text_db.files):
                findings.append(Finding(
                    m.file, m.line, "backend-drift",
                    f"clang sees mutex member {m.qualified} that the "
                    f"textual extractor missed"))
    return findings


def run_all(text_db: FactDb, cfg: Config, repo: str,
            clang_db: FactDb | None = None) -> list:
    """All rules over the canonical fact set. When clang facts exist they
    are merged in for exhaustiveness (type-resolved switches win) and the
    drift checks run."""
    db = text_db
    findings: list = []
    if clang_db is not None:
        findings += check_backend_drift(text_db, clang_db, cfg)
        # Canonical switch set: clang's where available (cond type beats
        # label inference), text's elsewhere.
        merged = FactDb()
        merged.merge(text_db)
        clang_keys = {(s.file, s.line) for s in clang_db.switches}
        merged.switches = ([s for s in text_db.switches
                            if (s.file, s.line) not in clang_keys]
                           + clang_db.switches)
        for name, e in clang_db.enums.items():
            merged.enums.setdefault(name, e)
        db = merged
    findings += check_exhaustive_switch(db, cfg)
    findings += check_registry(db, cfg)
    findings += check_codec_bound(db, cfg)
    findings += check_discarded_result(db, cfg)
    findings += check_lock_decls(db, cfg, repo)
    dedup: dict = {}
    for f in findings:
        dedup.setdefault(f.key(), f)
    return sorted(dedup.values(), key=lambda f: (f.file, f.line, f.rule,
                                                 f.message))
