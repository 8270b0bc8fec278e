"""The contract rules, applied to the merged facts of the whole tree.

Rules see only the facts model (model.py) plus the raw source lines (for
snippets and allow comments); everything here is pure Python over those
records.
"""

from __future__ import annotations

import re

from model import ALLOW_TAG, FileFacts, Finding

# util/tempfile's protocol surface: a write site whose enclosing function can
# reach one of these is writing to a temp path that gets renamed into place.
TEMPFILE_ENTRY = {"temp_path_for"}

# Files that *are* the sanctioned implementation of a contract.
TEMPFILE_IMPL = ("src/util/tempfile",)
SYNC_IMPL = ("src/util/sync.hpp",)
RNG_IMPL = ("src/util/rng.hpp",)
TIMER_IMPL = ("src/util/timer.hpp",)

# Banned-token rules: rule -> (the files where the token is the sanctioned
# implementation, message; `{what}` names the token the frontend saw).
TOKEN_RULES = {
    "sync-wrapper": (
        SYNC_IMPL,
        "direct {what} outside util/sync.hpp; use the annotated dlb:: "
        "wrappers"),
    "rng-contract": (
        RNG_IMPL,
        "{what} outside util/rng.hpp; derive per-round draws via "
        "draw_u64/counter_rng and structural streams via tagged_rng, so a "
        "stream change stays one file"),
    "clock": (
        TIMER_IMPL,
        "direct clock use; take timestamps from util/timer.hpp (now_ns)"),
    "unordered": (
        (),
        "unordered container: iteration order can leak into reports/merges; "
        "use std::map/std::set or sort before iterating"),
    "raw-random": (
        RNG_IMPL,
        "ambient entropy/process state; derive randomness from the "
        "seeded RNG streams in util/rng.hpp"),
    "ptr-key": (
        (),
        "pointer-keyed ordered container: iteration order is allocation "
        "order; key on a stable id instead"),
}

ALLOW_RE = re.compile(
    rf"//\s*{ALLOW_TAG}:\s*allow\(([\w, -]+)\)\s*(.*)")

CALL_GRAPH_DEPTH = 12  # generous; repo call chains to temp_path_for are <4


def _snippet(facts_by_rel: dict[str, FileFacts], rel: str, line: int) -> str:
    facts = facts_by_rel.get(rel)
    if facts and 1 <= line <= len(facts.raw_lines):
        return facts.raw_lines[line - 1]
    return ""


def _reaches_tempfile(start: str, calls_by_bare: dict[str, set[str]]) -> bool:
    """BFS over the bare-name call graph from `start` to a tempfile entry
    point. Bare names over-approximate (any same-named function links), which
    is the safe direction: over-approximating reachability can only *miss*
    findings for same-named helpers, never invent them, and the fixture
    corpus pins the shapes that matter."""
    seen = {start}
    frontier = [start]
    for _ in range(CALL_GRAPH_DEPTH):
        nxt: list[str] = []
        for name in frontier:
            for callee in calls_by_bare.get(name, ()):  # defined callees only
                if callee in TEMPFILE_ENTRY:
                    return True
                if callee not in seen:
                    seen.add(callee)
                    nxt.append(callee)
        if not nxt:
            return False
        frontier = nxt
    return False


def run_rules(all_facts: list[FileFacts]) -> list[Finding]:
    facts_by_rel = {f.rel: f for f in all_facts}
    findings: list[Finding] = []

    # Call graph keyed by bare name; a call edge resolves only to functions
    # that are *defined* somewhere in the scanned tree, plus the tempfile
    # entry points themselves (declared in a header the TU may not define).
    calls_by_bare: dict[str, set[str]] = {}
    defined: set[str] = set()
    for facts in all_facts:
        for fn in facts.functions:
            defined.add(fn.bare)
    defined |= TEMPFILE_ENTRY
    for facts in all_facts:
        for fn in facts.functions:
            calls_by_bare.setdefault(fn.bare, set()).update(
                c for c in fn.calls if c in defined)

    ofstream_member_names = {member for facts in all_facts
                             for _, member in facts.ofstream_members}
    ofstream_member_pairs = {(cls, member) for facts in all_facts
                             for cls, member in facts.ofstream_members}

    # ---- atomic-write ------------------------------------------------------
    for facts in all_facts:
        if facts.rel.startswith(TEMPFILE_IMPL):
            continue
        for site in facts.write_sites:
            kind = site.kind
            if kind.startswith("ofstream-open?"):
                # Unresolved `obj.open(...)` / ctor-init `member(...)`: only a
                # write site if obj is a known ofstream member — matched by
                # (class, member) when the frontend knew the class (ctor-init
                # sites), by member name alone otherwise.
                ref = kind.split("?", 1)[1]
                if "::" in ref:
                    if tuple(ref.rsplit("::", 1)) not in ofstream_member_pairs:
                        continue
                elif ref not in ofstream_member_names:
                    continue
                kind = "ofstream-open"
            if site.function and _reaches_tempfile(site.function,
                                                   calls_by_bare):
                continue
            findings.append(Finding(
                file=facts.rel, line=site.line, rule="atomic-write",
                message=(f"{kind} write site in "
                         f"'{site.function or '<file scope>'}' does not "
                         "reach util/tempfile's temp_path_for; write to "
                         "temp_path_for(path) and rename into place"),
                snippet=_snippet(facts_by_rel, facts.rel, site.line)))

    # ---- banned tokens (sync-wrapper, rng-contract, determinism) ----------
    for facts in all_facts:
        for use in facts.token_uses:
            home, message = TOKEN_RULES[use.rule]
            if facts.rel.startswith(home):
                continue
            findings.append(Finding(
                file=facts.rel, line=use.line, rule=use.rule,
                message=message.format(what=use.what),
                snippet=_snippet(facts_by_rel, facts.rel, use.line)))

    # ---- sync-wrapper: every dlb::mutex member guards something -----------
    guards_by_cls: dict[str, set[str]] = {}
    for facts in all_facts:
        for assoc in facts.guard_assocs:
            guards_by_cls.setdefault(assoc.cls, set()).add(assoc.mutex)
    for facts in all_facts:
        for member in facts.mutex_members:
            if member.member not in guards_by_cls.get(member.cls, set()):
                findings.append(Finding(
                    file=facts.rel, line=member.line, rule="sync-wrapper",
                    message=(f"dlb::mutex member '{member.cls}::"
                             f"{member.member}' has no DLB_GUARDED_BY("
                             f"{member.member}) field association; annotate "
                             "the data it protects"),
                    snippet=_snippet(facts_by_rel, facts.rel, member.line)))

    # ---- nondet-reduce -----------------------------------------------------
    for facts in all_facts:
        for accum in facts.float_accums:
            findings.append(Finding(
                file=facts.rel, line=accum.line, rule="nondet-reduce",
                message=(f"floating-point accumulation into by-reference "
                         f"captured '{accum.var}' inside a lambda handed to "
                         "the thread pool; combine order varies with thread "
                         "count — use executor::parallel_reduce"),
                snippet=_snippet(facts_by_rel, facts.rel, accum.line)))

    # One finding per (file, line, rule): a line naming two clocks, or
    # srand(time(...)), is one hazard to fix.
    unique: dict[tuple[str, int, str], Finding] = {}
    for f in findings:
        unique.setdefault((f.file, f.line, f.rule), f)
    return sorted(unique.values(), key=lambda f: (f.file, f.line, f.rule))


# ---- allow comments -------------------------------------------------------

def apply_allows(findings: list[Finding],
                 all_facts: list[FileFacts]) -> list[Finding]:
    """Filters findings carrying a reason-bearing allow comment on the same
    line or the line above; allow comments with an empty reason become
    findings themselves."""
    facts_by_rel = {f.rel: f for f in all_facts}
    out: list[Finding] = []
    used_empty: set[tuple[str, int]] = set()
    for finding in findings:
        facts = facts_by_rel.get(finding.file)
        allowed = False
        if facts:
            for line_no in (finding.line, finding.line - 1):
                if not 1 <= line_no <= len(facts.raw_lines):
                    continue
                m = ALLOW_RE.search(facts.raw_lines[line_no - 1])
                if not m:
                    continue
                rules = {r.strip() for r in m.group(1).split(",")}
                if finding.rule not in rules:
                    continue
                if not m.group(2).strip():
                    if (finding.file, line_no) not in used_empty:
                        used_empty.add((finding.file, line_no))
                        out.append(Finding(
                            file=finding.file, line=line_no,
                            rule="empty-allow-reason",
                            message=(f"allow({finding.rule}) without a "
                                     "reason; say why the contract does not "
                                     "apply here"),
                            snippet=facts.raw_lines[line_no - 1]))
                    allowed = True  # suppressed, but flagged for the reason
                    break
                allowed = True
                break
        if not allowed:
            out.append(finding)
    return out

