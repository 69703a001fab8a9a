"""Command-line front end: pick an algebra and a set of checks, run them in
dependency order, and emit a text or JSON report.

Exit status: 0 when every executed check passed (checks skipped by resource
caps count as non-failures), 1 when any check failed, 2 for configuration
errors, 3 when an explicitly requested check could not run because a
resource cap was hit.
"""

import argparse
import json
import sys
import time

from .rootsystem import (build_root_system, chevalley_data, representation,
                         UnsupportedType, LIE_DATA_TYPES, COMBINATORIAL_TYPES,
                         lie_to_json_dict)
from .rootsystem.reps import default_trace_label, trace_power_degrees
from .exactla import FieldMode, ComponentTooLarge, DEFAULT_MONOMIAL_CAP
from . import abideals
from .cdsw import (Workspace, check_S_power, check_part_i, check_prop_hat,
                   check_conj_c1, check_conj_c2_c3, check_sln_remark)

CHECK_NAMES = ["roots", "abideals", "poincare", "cdsw-i", "cdsw-ii",
               "cdsw-iii", "prop-hat", "conj-c1", "conj-c23", "sln-remark"]

_TRACE_TYPES = ("A", "B", "C", "G")   # trace powers generate the invariants


def _has_lie_data(key):
    return key in LIE_DATA_TYPES


def _check_applicable(name, key):
    """None when the check can run; otherwise the reason it cannot."""
    t, r = key
    if name in ("roots", "abideals", "poincare"):
        return None
    if not _has_lie_data(key):
        return "no Chevalley data for this type at desk scale"
    if name in ("prop-hat", "conj-c1", "conj-c23") and t not in _TRACE_TYPES:
        return "generating invariants are not all trace powers (Pfaffian)"
    if name == "sln-remark" and (t, r) not in (("A", 1), ("A", 2)):
        return "specific to sl(2) and sl(3)"
    return None


class CheckRunner:
    def __init__(self, key, mode, cap, g2_heavy=False):
        self.key = key
        self.mode = mode
        self.cap = cap
        self.g2_heavy = g2_heavy
        self.rs = build_root_system(*key)
        self._ws = None
        self._ideals = None

    @property
    def ws(self):
        if self._ws is None:
            self._ws = Workspace(chevalley_data(self.rs))
        return self._ws

    @property
    def ideals(self):
        if self._ideals is None:
            self._ideals = abideals.enumerate_abelian_ideals(self.rs)
        return self._ideals

    def _gate_g2(self):
        if self.key == ("G", 2) and not self.g2_heavy:
            raise _Skipped("G2 exterior checks are heavy; enable with "
                           "--g2-heavy")

    def run(self, name):
        reason = _check_applicable(name, self.key)
        if reason is not None:
            return {"verdict": "skipped", "reason": reason}
        try:
            return getattr(self, "check_" + name.replace("-", "_"))()
        except _Skipped as exc:
            return {"verdict": "skipped", "reason": str(exc)}
        except ComponentTooLarge as exc:
            return {"verdict": "skipped", "reason": "resource cap: %s" % exc,
                    "cap_hit": True}

    # ------------------------------------------------------------------

    def check_roots(self):
        rs = self.rs
        ok = True
        dim = rs.dim_g()
        ok = ok and 2 * len(rs.positive_roots) + rs.rank == dim
        for i in range(rs.rank):
            for j in range(rs.rank):
                a = rs.cartan[i][j]
                ok = ok and (a == 2 if i == j else a in (0, -1, -2, -3))
        ok = ok and all(all(c >= 0 for c in root)
                        for root in rs.positive_roots)
        rebuilt = type(rs)(rs.type_label, rs.rank)
        ok = ok and rebuilt.positive_roots == rs.positive_roots
        return {
            "verdict": "pass" if ok else "fail",
            "positive_roots": len(rs.positive_roots),
            "dim": dim,
            "dual_coxeter": rs.dual_coxeter(),
            "degrees": rs.invariant_degrees(),
        }

    def check_abideals(self):
        ideals = self.ideals
        ok = len(ideals) == 2 ** self.rs.rank
        recheck = all(abideals.is_ideal(self.rs, a.roots)
                      and abideals.is_abelian(self.rs, a.roots)
                      for a in ideals)
        hist = abideals.poincare_series(ideals)
        return {
            "verdict": "pass" if ok and recheck else "fail",
            "count": len(ideals),
            "expected": 2 ** self.rs.rank,
            "dimension_histogram": hist,
            "ideals": [list(a.indices) for a in ideals],
        }

    def check_poincare(self):
        rep = abideals.check_prop_cox(self.rs, self.ideals)
        rep["verdict"] = "pass" if rep.pop("pass") else "fail"
        return rep

    def check_cdsw_ii(self):
        self._gate_g2()
        g = self.ws.g
        res = check_S_power(self.ws, g, self.mode, self.cap)
        verdict = "pass" if res["contained"] else "fail"
        out = {"verdict": verdict, "k": g, "s_power_in_ideal": res["contained"],
               "ideal_rank": res["ideal_rank"],
               "trace_S_constant": self._trace_constant()}
        if verdict == "fail":
            out["witness"] = str(self.ws.S.power(g))
        return out

    def check_cdsw_iii(self):
        self._gate_g2()
        g = self.ws.g
        res = check_S_power(self.ws, g - 1, self.mode, self.cap)
        verdict = "pass" if not res["contained"] else "fail"
        out = {"verdict": verdict, "k": g - 1,
               "s_power_in_ideal": res["contained"],
               "ideal_rank": res["ideal_rank"]}
        if verdict == "fail":
            out["witness"] = str(self.ws.S.power(g - 1))
        return out

    def _trace_constant(self):
        c = self.ws.trace_S_constant()
        return "%d/%d" % (c.numerator, c.denominator)

    def check_cdsw_i(self):
        self._gate_g2()
        rep = check_part_i(self.ws, self.ws.g, self.mode, self.cap)
        rep["verdict"] = "pass" if rep.pop("pass") else "fail"
        return rep

    def check_prop_hat(self):
        self._gate_g2()
        degrees = trace_power_degrees(self.ws.lie)
        pairs = [(k1, k2) for k1 in degrees for k2 in degrees if k1 <= k2]
        runs = []
        ok = True
        for k1, k2 in pairs:
            r = check_prop_hat(self.ws, k1, k2, mode=self.mode, cap=self.cap)
            ok = ok and r.pop("pass")
            runs.append(r)
        return {"verdict": "pass" if ok else "fail", "pairs": runs}

    def check_conj_c1(self):
        self._gate_g2()
        counts = abideals.poincare_series(self.ideals)
        rep = check_conj_c1(self.ws, self.ws.g - 1, mode=self.mode,
                            cap=self.cap, ideal_counts=counts)
        rep["verdict"] = "pass" if rep.pop("pass") else "fail"
        return rep

    def check_conj_c23(self):
        self._gate_g2()
        rep = check_conj_c2_c3(self.ws, mode=self.mode, cap=self.cap)
        rep["verdict"] = "pass" if rep.pop("pass") else "fail"
        return rep

    def check_sln_remark(self):
        n = self.key[1] + 1
        rep = check_sln_remark(n, self.mode, self.cap)
        rep["verdict"] = "pass" if rep.pop("pass") else "fail"
        return rep


class _Skipped(Exception):
    pass


def _parse_algebra(pair):
    t, r = pair[0].upper(), int(pair[1])
    if (t, r) not in COMBINATORIAL_TYPES:
        raise UnsupportedType("%s%s" % (t, r))
    return (t, r)


DEFAULT_PROFILE = [("A", 1), ("A", 2), ("B", 2), ("G", 2)]


def build_parser():
    p = argparse.ArgumentParser(
        prog="chiralring",
        description="Exact checks on the supercommutative quotient algebra "
                    "of a simple Lie algebra.")
    p.add_argument("--algebra", nargs=2, metavar=("TYPE", "RANK"),
                   help="algebra type letter and rank, e.g. --algebra A 2; "
                        "omit to run the default profile")
    p.add_argument("--checks", default="all",
                   help="comma list out of %s, or 'all'" % ",".join(CHECK_NAMES))
    p.add_argument("--mode", choices=["exact", "modular"], default="exact",
                   help="modular: the certified elimination tries two "
                        "primes drawn from --seed first; every answer is "
                        "certified and identical in both modes")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the first primes in modular mode (logged)")
    p.add_argument("--max-monomials", type=int, default=DEFAULT_MONOMIAL_CAP,
                   metavar="N", help="component-size cap, N >= 1")
    p.add_argument("--json", metavar="PATH", help="write the JSON report here")
    p.add_argument("--g2-heavy", action="store_true",
                   help="enable the large G2 exterior computations")
    p.add_argument("--export-lie", metavar="PATH",
                   help="export structure constants and representation "
                        "matrices of the selected algebra as JSON")
    return p


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.checks == "all":
        selected = list(CHECK_NAMES)
    else:
        selected = [c.strip() for c in args.checks.split(",") if c.strip()]
        unknown = [c for c in selected if c not in CHECK_NAMES]
        if unknown:
            print("unknown checks: %s" % ", ".join(unknown), file=sys.stderr)
            print("known: %s" % ", ".join(CHECK_NAMES), file=sys.stderr)
            return 2
    explicit_checks = args.checks != "all"
    if args.max_monomials < 1:
        print("configuration error: --max-monomials must be at least 1, "
              "got %d" % args.max_monomials, file=sys.stderr)
        return 2

    if args.mode == "modular":
        mode = FieldMode.modular(seed=args.seed)
    else:
        mode = FieldMode.exact()

    try:
        if args.algebra:
            algebras = [_parse_algebra(args.algebra)]
        else:
            algebras = list(DEFAULT_PROFILE)
    except (UnsupportedType, ValueError) as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2

    if args.export_lie:
        if not args.algebra or not _has_lie_data(algebras[0]):
            print("--export-lie needs --algebra with Chevalley data",
                  file=sys.stderr)
            return 2
        lie = chevalley_data(build_root_system(*algebras[0]))
        reps = [representation(lie, default_trace_label(algebras[0][0])),
                representation(lie, "adjoint")]
        with open(args.export_lie, "w") as fh:
            json.dump(lie_to_json_dict(lie, reps), fh, sort_keys=True,
                      indent=1)
        print("wrote %s" % args.export_lie)

    report = {
        "config": {
            "algebras": ["%s%d" % key for key in algebras],
            "checks": selected,
            "mode": mode.label(),
            "seed": args.seed,
            "max_monomials": args.max_monomials,
        },
        "runs": [],
    }
    timings = {}
    any_fail = False
    cap_blocked_explicit = False

    for key in algebras:
        runner = CheckRunner(key, mode, args.max_monomials, args.g2_heavy)
        results = []
        for name in selected:
            t0 = time.perf_counter()
            res = runner.run(name)
            timings["%s%d:%s" % (key[0], key[1], name)] = round(
                time.perf_counter() - t0, 3)
            res["name"] = name
            results.append(res)
            verdict = res["verdict"]
            line = "%-4s %-11s %s" % ("%s%d" % key, name, verdict)
            if verdict == "skipped":
                line += "  (%s)" % res.get("reason", "")
            print(line)
            if verdict == "fail":
                any_fail = True
                if "witness" in res:
                    print("  witness: %s" % res["witness"])
            if res.get("cap_hit") and explicit_checks:
                cap_blocked_explicit = True
        report["runs"].append({"algebra": "%s%d" % key, "results": results})

    report["all_passed"] = not any_fail
    doc = {"report": report, "timings": timings}
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=1)
            fh.write("\n")

    if any_fail:
        return 1
    if cap_blocked_explicit:
        return 3
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
