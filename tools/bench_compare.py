#!/usr/bin/env python3
"""Diff a bench trajectory report against its committed baseline.

Usage:
    bench_compare.py BASELINE.json CURRENT.json
    bench_compare.py --self-test

Consumes the schema-v1 reports written by the figure benches' --bench-json
mode (bench/bench_json.h) and enforces the trajectory contract:

  * `schema_version` and `bench` must match exactly.
  * Every section's KEY SET must match exactly — a metric silently added or
    dropped is a schema break, reported as such.
  * `config` values must match exactly (same workload, or the comparison is
    meaningless).
  * `deterministic` / `deterministic_text` values must match exactly: these
    are result digests and pruning counters that may not drift at all.
  * `deterministic_text.build_type` (the CMake build type the bench was
    compiled in) is checked first: timings and ratios depend on it, so a
    report from another build type is refused with that one failure.
  * `timings_us` values compare with a LOOSE catastrophic-only tolerance
    (default 4x either way): wall clocks differ across machines and CI
    runners, so only an order-of-magnitude explosion fails.
  * `ratios` values compare with a TIGHT relative tolerance (default 35%,
    with an absolute floor of 0.35 for near-zero ratios): same-run time
    ratios are machine-portable, so real regressions show here.
  * `ratios_min` (optional section) values are ONE-SIDED floors: the
    baseline records the minimum acceptable ratio (an acceptance gate,
    e.g. "snapshot open must stay >=10x faster than CSV rebuild") and the
    current report records the measured value, which may exceed the floor
    by any margin but may never fall below it. The section must be present
    in both reports or absent from both.

Exit status: 0 = within tolerance, 1 = regression/schema break, 2 = usage
or unreadable input.
"""

import json
import sys

# Tolerances — documented above and in DESIGN.md; CI imports them implicitly
# by calling this script, so change them here and the docs together.
TIMING_FACTOR = 4.0   # timings_us: fail only past 4x slower or 4x faster
RATIO_REL = 0.35      # ratios: ±35% relative ...
RATIO_FLOOR = 0.35    # ... with an absolute floor for near-zero ratios

SECTIONS = ("config", "deterministic", "deterministic_text",
            "timings_us", "ratios")

# Optional one-sided section: baseline value = acceptance floor, current
# value = measured ratio; current >= floor passes. Absent from both is fine
# (pre-floor reports); present in only one is a schema break.
MIN_SECTION = "ratios_min"


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def build_type(report):
    """The report's deterministic_text.build_type, or None."""
    text = report.get("deterministic_text")
    return text.get("build_type") if isinstance(text, dict) else None


def compare(baseline, current):
    """Returns a list of human-readable failure strings (empty = pass)."""
    b_type = build_type(baseline)
    c_type = build_type(current)
    if b_type != c_type:
        return ["build type mismatch: baseline=%r current=%r (rebuild with "
                "-DCMAKE_BUILD_TYPE=%s and rerun)" % (b_type, c_type, b_type)]
    fails = []

    for field in ("schema_version", "bench"):
        if baseline.get(field) != current.get(field):
            fails.append("schema break: %s: baseline=%r current=%r"
                         % (field, baseline.get(field), current.get(field)))

    for section in SECTIONS:
        b = baseline.get(section)
        c = current.get(section)
        if not isinstance(b, dict) or not isinstance(c, dict):
            fails.append("schema break: section %r missing or not an object"
                         % section)
            continue
        missing = sorted(set(b) - set(c))
        added = sorted(set(c) - set(b))
        if missing:
            fails.append("schema break: %s: keys dropped: %s"
                         % (section, ", ".join(missing)))
        if added:
            fails.append("schema break: %s: keys added: %s"
                         % (section, ", ".join(added)))
        for key in sorted(set(b) & set(c)):
            bv, cv = b[key], c[key]
            if section in ("config", "deterministic", "deterministic_text"):
                if bv != cv:
                    fails.append("%s.%s: exact mismatch: baseline=%r "
                                 "current=%r" % (section, key, bv, cv))
            elif section == "timings_us":
                if bv > 0 and not (bv / TIMING_FACTOR <= cv
                                   <= bv * TIMING_FACTOR):
                    fails.append(
                        "timings_us.%s: %.1f vs baseline %.1f exceeds the "
                        "catastrophic %gx envelope" % (key, cv, bv,
                                                       TIMING_FACTOR))
            else:  # ratios
                tol = max(RATIO_FLOOR, abs(bv) * RATIO_REL)
                if abs(cv - bv) > tol:
                    fails.append(
                        "ratios.%s: %.3f vs baseline %.3f drifts past "
                        "+/-%.3f (%d%% rel, %.2f floor)"
                        % (key, cv, bv, tol, int(RATIO_REL * 100),
                           RATIO_FLOOR))

    b_min = baseline.get(MIN_SECTION)
    c_min = current.get(MIN_SECTION)
    if b_min is None and c_min is None:
        pass  # pre-floor report pair: nothing to enforce
    elif not isinstance(b_min, dict) or not isinstance(c_min, dict):
        fails.append("schema break: section %r present in only one report "
                     "(or not an object)" % MIN_SECTION)
    else:
        missing = sorted(set(b_min) - set(c_min))
        added = sorted(set(c_min) - set(b_min))
        if missing:
            fails.append("schema break: %s: keys dropped: %s"
                         % (MIN_SECTION, ", ".join(missing)))
        if added:
            fails.append("schema break: %s: keys added: %s"
                         % (MIN_SECTION, ", ".join(added)))
        for key in sorted(set(b_min) & set(c_min)):
            if c_min[key] < b_min[key]:
                fails.append(
                    "%s.%s: %.3f falls below the %.3f acceptance floor"
                    % (MIN_SECTION, key, c_min[key], b_min[key]))
    return fails


def self_test():
    """Exercises every comparison rule; returns 0 on success."""
    base = {
        "schema_version": 1, "bench": "discovery",
        "config": {"k": 10},
        "deterministic": {"pruned": 42},
        "deterministic_text": {"build_type": "Release", "digest": "abc"},
        "timings_us": {"t": 1000.0},
        "ratios": {"speedup": 2.0},
    }

    def clone():
        return json.loads(json.dumps(base))

    cases = []  # (name, mutate(current), expect_failure_substring or None)

    cases.append(("identical passes", lambda c: None, None))

    def bump_timing_ok(c):
        c["timings_us"]["t"] = 3000.0  # 3x < 4x envelope
    cases.append(("timing within envelope passes", bump_timing_ok, None))

    def bump_ratio_ok(c):
        c["ratios"]["speedup"] = 2.5  # within 35% of 2.0
    cases.append(("ratio within tolerance passes", bump_ratio_ok, None))

    def wrong_bench(c):
        c["bench"] = "integration"
    cases.append(("bench mismatch fails", wrong_bench, "schema break: bench"))

    def drop_key(c):
        del c["deterministic"]["pruned"]
    cases.append(("dropped key fails", drop_key, "keys dropped"))

    def add_key(c):
        c["ratios"]["extra"] = 1.0
    cases.append(("added key fails", add_key, "keys added"))

    def drift_config(c):
        c["config"]["k"] = 20
    cases.append(("config drift fails", drift_config, "config.k"))

    def drift_det(c):
        c["deterministic"]["pruned"] = 41
    cases.append(("deterministic drift fails", drift_det,
                  "deterministic.pruned"))

    def drift_text(c):
        c["deterministic_text"]["digest"] = "xyz"
    cases.append(("text drift fails", drift_text, "deterministic_text.digest"))

    def other_build_type(c):
        c["deterministic_text"]["build_type"] = "RelWithDebInfo"
        c["ratios"]["speedup"] = 1.0  # not reported: the type is refused
    cases.append(("build type mismatch refused", other_build_type,
                  "build type mismatch"))

    def blow_timing(c):
        c["timings_us"]["t"] = 5000.0  # 5x > 4x envelope
    cases.append(("catastrophic timing fails", blow_timing, "timings_us.t"))

    def blow_ratio(c):
        c["ratios"]["speedup"] = 1.0  # |1.0 - 2.0| > max(0.35, 0.7)
    cases.append(("ratio regression fails", blow_ratio, "ratios.speedup"))

    ok = True
    for name, mutate, expect in cases:
        cur = clone()
        mutate(cur)
        fails = compare(base, cur)
        if expect is None:
            if fails:
                print("self-test FAIL: %s: unexpected failures: %s"
                      % (name, fails))
                ok = False
        else:
            if not any(expect in f for f in fails):
                print("self-test FAIL: %s: expected %r in %s"
                      % (name, expect, fails))
                ok = False

    # A refused build type is the only failure reported.
    cur = clone()
    other_build_type(cur)
    if len(compare(base, cur)) != 1:
        print("self-test FAIL: build type mismatch should be the only failure")
        ok = False

    # ratios_min: one-sided floor semantics, against a floor-carrying base.
    floor_base = clone()
    floor_base["ratios_min"] = {"cold_start_speedup": 10.0}

    def floor_clone():
        return json.loads(json.dumps(floor_base))

    min_cases = [
        ("ratios_min above floor passes",
         {"cold_start_speedup": 57.3}, None),
        ("ratios_min at floor passes",
         {"cold_start_speedup": 10.0}, None),
        ("ratios_min below floor fails",
         {"cold_start_speedup": 9.2}, "acceptance floor"),
        ("ratios_min dropped key fails", {}, "keys dropped"),
        ("ratios_min section missing fails", None, "present in only one"),
    ]
    for name, value, expect in min_cases:
        cur = floor_clone()
        if value is None:
            del cur["ratios_min"]
        else:
            cur["ratios_min"] = value
        fails = compare(floor_base, cur)
        if expect is None and fails:
            print("self-test FAIL: %s: unexpected failures: %s"
                  % (name, fails))
            ok = False
        elif expect is not None and not any(expect in f for f in fails):
            print("self-test FAIL: %s: expected %r in %s"
                  % (name, expect, fails))
            ok = False
    # Absent from both reports stays accepted (pre-floor baselines).
    if compare(base, clone()):
        print("self-test FAIL: absent-from-both ratios_min should pass")
        ok = False

    print("bench_compare self-test: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[0])
        print("usage: bench_compare.py BASELINE.json CURRENT.json "
              "| --self-test")
        return 2
    try:
        baseline = load(argv[1])
        current = load(argv[2])
    except (OSError, ValueError) as e:
        print("bench_compare: cannot read input: %s" % e)
        return 2
    fails = compare(baseline, current)
    bench = baseline.get("bench", "?")
    if fails:
        for f in fails:
            print("bench_compare[%s]: %s" % (bench, f))
        print("bench_compare[%s]: FAIL (%d)" % (bench, len(fails)))
        return 1
    print("bench_compare[%s]: PASS (trajectory within tolerance)" % bench)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
