#!/usr/bin/env python3
"""Run the mutation catalogue (tests/mutants.txt) and record what kills each mutant.

    python3 tests/run_mutants.py [--catalogue tests/mutants.txt] [--ledger MUTANTS.json]
                                 [--limit N] [--work DIR] [--no-record] [--timeout S]

Run from the root of a checkout. The tracked (and untracked, not ignored)
files are copied once into a work directory (a fresh temporary one unless
--work names one). The unmutated copy is tested first and must pass: a kill
means nothing against a red tree. Then, one mutant at a time, the copy's
file gets the mutant's fragment replaced, `cargo test --no-fail-fast` runs
there, and the file is restored. All runs share one target directory inside
the work directory, so each mutant rebuilds only the crates downstream of
the file it touches.

Cargo runs with libtest's `--quiet` (the `cargo test -q` test output) but
without cargo's own `-q`, because cargo's "Running <target>" lines are what
attribute a failing test to its test target.

A mutant is
  killed      at least one test failed (or a test binary crashed or timed out);
  survived    every test passed;
  unviable    the mutated tree did not compile (a catalogue error).
The tests that killed it are split into goldens (the targets that pin the
code to recorded digests: policy_equivalence, demotion_rules,
banked_goldens, telemetry_trace, aliasing_clamp) and spec tests (every
other unit, property and integration test). A mutant killed only by
goldens counts towards the golden-only share: the tests can say "changed",
but nothing says "wrong".

Unless --no-record is given, one entry is appended to the ledger (a JSON
list, created when missing). Exit status: 0 when every mutant run was
killed; 1 when one survived or was unviable, the catalogue is malformed
(a fragment that does not occur exactly once), or the unmutated tree
fails. --limit N runs only the first N mutants (the CI smoke).
Standard library only.
"""
import argparse
import datetime
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_TARGETS = {
    "policy_equivalence",
    "demotion_rules",
    "banked_goldens",
    "telemetry_trace",
    "aliasing_clamp",
}
COMMAND = ["cargo", "test", "--no-fail-fast", "--", "--quiet"]


def read_catalogue(path):
    """The catalogue's mutants: (file, fragment, replacement, rationale)."""
    mutants = []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                sys.exit(f"{path}:{n}: expected 4 tab-separated fields, found {len(fields)}")
            mutants.append(dict(zip(("file", "fragment", "replacement", "rationale"), fields)))
    return mutants


def tree_files():
    """Tracked files plus untracked ones that are not ignored."""
    out = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE,
    ).stdout.decode()
    return [f for f in out.split("\0") if f and os.path.isfile(os.path.join(ROOT, f))]


def copy_tree(dest):
    for rel in tree_files():
        target = os.path.join(dest, rel)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(os.path.join(ROOT, rel), target)


def commit():
    head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                           stdout=subprocess.PIPE, text=True).stdout.strip()
    return head + ("+dirty" if dirty else "")


def target_name(line):
    """The test target a cargo status line starts, or None."""
    m = re.match(r"\s+Running .*\((?:.*/)?([^/()]+?)(?:-[0-9a-f]{16})?(?:\.exe)?\)\s*$", line)
    if m:
        return m.group(1)
    m = re.match(r"\s+Doc-tests (\S+)\s*$", line)
    return f"doc:{m.group(1)}" if m else None


def run_tests(tree, target_dir, timeout):
    """Runs the suite in `tree`; returns (status, [(target, test)], seconds)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    start = time.monotonic()
    proc = subprocess.Popen(COMMAND, cwd=tree, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timeout", [], time.monotonic() - start
    seconds = time.monotonic() - start
    if re.search(r"^error(\[E\d+\])?: could not compile", output, re.M):
        return "unviable", [], seconds
    failed, target, target_failed = [], None, set()
    for line in output.splitlines():
        name = target_name(line)
        if name:
            target = name
            continue
        m = re.match(r"^---- (.+?) stdout ----$", line)
        if m:
            failed.append((target, m.group(1)))
        elif line.startswith("test result: FAILED") or "process didn't exit successfully" in line:
            target_failed.add(target)
    # A binary that crashed before reporting names no test of its own.
    named = {t for t, _ in failed}
    failed += [(t, "(test binary failed)") for t in sorted(target_failed - named, key=str)]
    if proc.returncode != 0 and not failed:
        failed.append((None, "(cargo test failed)"))
    return ("failed" if failed else "passed"), failed, seconds


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--catalogue", default=os.path.join(ROOT, "tests", "mutants.txt"))
    ap.add_argument("--ledger", default=os.path.join(ROOT, "MUTANTS.json"))
    ap.add_argument("--limit", type=int, help="run only the first N mutants")
    ap.add_argument("--work", help="work directory (default: a fresh temporary one)")
    ap.add_argument("--timeout", type=float, default=1800, help="seconds per test run")
    ap.add_argument("--no-record", action="store_true", help="append nothing to the ledger")
    args = ap.parse_args()

    mutants = read_catalogue(args.catalogue)[: args.limit]
    for m in mutants:
        with open(os.path.join(ROOT, m["file"])) as f:
            hits = f.read().count(m["fragment"])
        if hits != 1:
            sys.exit(f"{m['file']}: fragment occurs {hits} times, not once: {m['fragment']!r}")

    work = args.work or tempfile.mkdtemp(prefix="mutants-")
    tree, target_dir = os.path.join(work, "tree"), os.path.join(work, "target")
    shutil.rmtree(tree, ignore_errors=True)
    tested = commit()
    copy_tree(tree)
    print(f"work directory {work}", file=sys.stderr)

    status, failed, seconds = run_tests(tree, target_dir, args.timeout)
    print(f"unmutated tree: {status} in {seconds:.0f} s", file=sys.stderr)
    if status != "passed":
        for t, name in failed:
            print(f"  {t}: {name}", file=sys.stderr)
        sys.exit("the unmutated tree must pass before mutants can be judged")

    results = []
    for i, m in enumerate(mutants, 1):
        path = os.path.join(tree, m["file"])
        with open(path) as f:
            original = f.read()
        with open(path, "w") as f:
            f.write(original.replace(m["fragment"], m["replacement"], 1))
        try:
            status, failed, seconds = run_tests(tree, target_dir, args.timeout)
        finally:
            with open(path, "w") as f:
                f.write(original)
        kills = sorted({f"{t}::{name}" if t else name for t, name in failed})
        golden = [k for k in kills if k.split("::", 1)[0] in GOLDEN_TARGETS]
        spec = [k for k in kills if k not in golden]
        outcome = {"failed": "killed", "timeout": "killed", "passed": "survived"}.get(status, status)
        results.append({
            "file": m["file"], "fragment": m["fragment"], "replacement": m["replacement"],
            "rationale": m["rationale"], "outcome": outcome, "timed_out": status == "timeout",
            "spec_kills": spec, "golden_kills": golden, "seconds": round(seconds, 1),
        })
        print(f"[{i}/{len(mutants)}] {outcome:<8} spec {len(spec):>3} golden {len(golden):>3} "
              f"{seconds:5.0f} s  {m['file']}: {m['rationale']}", file=sys.stderr)

    killed = [r for r in results if r["outcome"] == "killed"]
    golden_only = [r for r in killed if not r["spec_kills"] and not r["timed_out"]]
    summary = {
        "mutants": len(results),
        "killed": len(killed),
        "survived": sum(r["outcome"] == "survived" for r in results),
        "unviable": sum(r["outcome"] == "unviable" for r in results),
        "golden_only": len(golden_only),
        "golden_only_share": round(len(golden_only) / len(killed), 4) if killed else 0.0,
    }
    print(json.dumps(summary), file=sys.stderr)
    if not args.no_record:
        entry = {
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "commit": tested,
            "catalogue": os.path.relpath(args.catalogue, ROOT),
            "command": " ".join(COMMAND),
            "golden_targets": sorted(GOLDEN_TARGETS),
            "summary": summary,
            "mutants": results,
        }
        ledger = json.load(open(args.ledger)) if os.path.exists(args.ledger) else []
        ledger.append(entry)
        with open(args.ledger, "w") as f:
            json.dump(ledger, f, indent=1)
            f.write("\n")
    if not args.work:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(0 if summary["killed"] == summary["mutants"] else 1)


if __name__ == "__main__":
    main()
