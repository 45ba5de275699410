#!/usr/bin/env python3
"""Gate bench results against declarative baseline records.

Usage:
  check_bench_regression.py BASELINE CURRENT [CURRENT ...]

BASELINE is a JSON array of gate records (bench/baselines/smoke_gates.json);
each CURRENT is a JSON array of bench records (the BENCH_*.json artifacts).
Every gate record is checked by the same rule. Its keys are:

  match          {key: value}: the gate applies to the one current record,
                 across all CURRENT files, whose keys equal these values.
  min_<field>    the matched record's <field> must be >= the value.
  max_<field>    ... <= the value.
  require_<field> ... == the value.
  when           optional {bound: value}, bounds of the same three forms on
                 the matched record; if one is not met the gate prints SKIP
                 (e.g. a speedup floor on a runner with too few cores).
  comment        free text.

A gate fails when no current record matches (MISSING), more than one does
(AMBIGUOUS), a bounded field is absent from the matched record, or a bound
is violated. Any other key in a gate is a baseline error. Exit status is 0
only when the baseline is well formed and no gate fails.
"""

import json
import sys

OPS = {
    "min_": (">=", lambda got, want: got >= want),
    "max_": ("<=", lambda got, want: got <= want),
    "require_": ("==", lambda got, want: got == want),
}
PLAIN_KEYS = ("match", "when", "comment")


def split_bound(key):
    """'min_warm_vps' -> ('min_', 'warm_vps'); None if `key` is no bound."""
    for prefix in OPS:
        if key.startswith(prefix) and len(key) > len(prefix):
            return prefix, key[len(prefix):]
    return None


def bounds_of(obj):
    return {k: v for k, v in obj.items() if split_bound(k)}


def gate_errors(gate):
    """Everything wrong with one gate record's shape, as messages."""
    if not isinstance(gate, dict):
        return ["gate is not a JSON object"]
    errors = []
    match = gate.get("match")
    if not isinstance(match, dict) or not match:
        errors.append("'match' must be a non-empty object")
    when = gate.get("when", {})
    if not isinstance(when, dict):
        errors.append("'when' must be an object")
        when = {}
    for key in gate:
        if key not in PLAIN_KEYS and not split_bound(key):
            errors.append(f"unknown key '{key}'")
    for key in when:
        if not split_bound(key):
            errors.append(f"unknown key '{key}' in 'when'")
    if not bounds_of(gate):
        errors.append("no min_/max_/require_ bound")
    return errors


def check_bounds(bounds, rec):
    """[(text, ok)] per bound on `rec`; ok is None when the field is absent."""
    results = []
    for key, want in bounds.items():
        prefix, field = split_bound(key)
        symbol, holds = OPS[prefix]
        got = rec.get(field)
        if got is None:
            results.append((f"{field} absent (want {symbol} {want})", None))
            continue
        try:
            ok = holds(got, want)
        except TypeError:
            ok = False
        results.append((f"{field} {got} {symbol} {want}", ok))
    return results


def evaluate(gate, current):
    """(status, detail) for one well-formed gate against all current records.

    status is PASS, FAIL, SKIP, MISSING or AMBIGUOUS. A `when` field that is
    absent fails like a bound's, rather than skipping.
    """
    hits = [r for r in current
            if all(k in r and r[k] == v for k, v in gate["match"].items())]
    if not hits:
        return "MISSING", "no current record matches"
    if len(hits) > 1:
        return "AMBIGUOUS", f"{len(hits)} current records match"
    rec = hits[0]
    when = check_bounds(gate.get("when", {}), rec)
    absent = [(t, ok) for t, ok in when if ok is None]
    if not absent and not all(ok for _, ok in when):
        return "SKIP", "when not met: " + ", ".join(t for t, ok in when
                                                   if not ok)
    results = absent + check_bounds(bounds_of(gate), rec)
    detail = ", ".join(t if ok else f"{t} << FAILED" for t, ok in results)
    return ("PASS" if all(ok for _, ok in results) else "FAIL"), detail


def gate_name(gate):
    return " ".join(f"{k}={v}" for k, v in gate["match"].items())


def load_array(path):
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON array")
    return data


def run(baseline_path, current_paths):
    """Prints one line per gate; returns the process exit status."""
    gates = load_array(baseline_path)
    errors = [f"gate {i}: {e}" for i, g in enumerate(gates)
              for e in gate_errors(g)]
    if not gates:
        errors.append("no gate records")
    if errors:
        for e in errors:
            print(f"error: {baseline_path}: {e}")
        return 1
    current = [r for p in current_paths for r in load_array(p)
               if isinstance(r, dict)]
    failed = 0
    for gate in gates:
        status, detail = evaluate(gate, current)
        failed += status not in ("PASS", "SKIP")
        print(f"{status:<9} {gate_name(gate)}: {detail}")
    if failed:
        print(f"\nFAIL: {failed} of {len(gates)} bench gates failed")
        return 1
    print(f"\nOK: all {len(gates)} bench gates hold")
    return 0


def main(argv):
    if len(argv) < 3 or any(a.startswith("-") for a in argv[1:]):
        print("usage: check_bench_regression.py BASELINE CURRENT [CURRENT ...]",
              file=sys.stderr)
        return 2
    return run(argv[1], argv[2:])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
