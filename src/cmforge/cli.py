"""Command-line front end.

JSON-lines on stdout; integers that do not fit a double are emitted as
decimal strings.  Exit codes: 0 ok, 2 invalid parameters (including failed
verification), 3 precision budget exhausted, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
import traceback

from .arith import Discriminant, admissible_params, is_probable_prime, \
    validate_params
from .approx import approx_quality, run_approx
from .classpoly import DEFAULT_MAX_BITS, class_poly_divisor, class_poly_full, \
    coset_product_check
from .curve import gen_curve, make_curve, order_mismatch
from .errors import (CMForgeError, InternalInvariantError, InvalidParameters,
                     PrecisionExhausted)
from .genusfield import IMAG_PART, REAL_PART, build_basis, build_mpair
from .modfns import InvariantKind

_BIG = 1 << 53


def _jsonable(x):
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, int):
        return str(x) if abs(x) >= _BIG else x
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (str, float)):
        return x
    return str(x)


def _emit(obj, out):
    out.write(json.dumps(_jsonable(obj)) + "\n")


def _as_int(x, what):
    """A JSON integer (not a bool) or a decimal-integer string, as int."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str) and re.fullmatch(r"-?[0-9]+", x):
        try:
            return int(x)
        except ValueError:   # more digits than int() converts
            pass
    raise InvalidParameters(f"{what} must be an integer, got {x!r:.80}")


# ---------------------------------------------------------------------------

def cmd_params(args, out):
    if (args.disc is None) == (args.fixed_p is None):
        raise InvalidParameters("give exactly one of --disc / --fixed-p")
    if args.disc is not None:
        Discriminant.from_D(args.disc)
        pairs = ((args.disc, p) for p in range(max(5, args.p_min), args.p_max + 1)
                 if is_probable_prime(p))
    else:
        p = args.fixed_p
        if p <= 3 or not is_probable_prime(p):
            raise InvalidParameters(f"--fixed-p needs a prime > 3, got {p}")
        pairs = ((D, p) for D in range(-3, -args.disc_max - 1, -1) if D % 4 in (0, 1))
    for D, p in pairs:
        params = admissible_params(D, p)
        if params:
            _emit({"D": D, "p": p, "u": params[0].u, "v": params[0].v,
                   "orders": [prm.order for prm in params]}, out)
    return 0


def cmd_classpoly(args, out):
    kind = InvariantKind.parse(args.invariant)
    full = div = None
    if args.genus_divisor or args.coset_check:
        div = class_poly_divisor(args.disc, kind, max_bits=args.max_bits,
                                 route="conjugates")
    if not args.genus_divisor or args.coset_check:
        full = class_poly_full(args.disc, kind, max_bits=args.max_bits)
    blob = (div if args.genus_divisor else full).to_json()
    if args.coset_check:
        if not coset_product_check(full, div):
            raise InternalInvariantError(
                f"coset product check failed for D={args.disc}")
        blob["coset_check"] = True
    _emit(blob, out)
    return 0


def cmd_gencurve(args, out):
    D, p = args.disc, args.prime
    params = admissible_params(D, p)
    if not params:
        raise InvalidParameters(f"4p = u^2 + |D|v^2 has no solution for (D,p)=({D},{p})")
    chosen = next((prm for prm in params if prm.order == args.order), None)
    if chosen is None:
        orders = sorted(prm.order for prm in params)
        raise InvalidParameters(
            f"order {args.order} not admissible at (D,p)=({D},{p}); valid: {orders}")
    kind = InvariantKind.parse(args.invariant)
    res = gen_curve(D, p, chosen.u, chosen.v, kind=kind, path=args.path,
                    seed=args.seed, max_bits=args.max_bits)
    c = res["curve"]
    _emit({"p": c.p, "a": c.a, "b": c.b, "j": res["j"], "order": res["order"],
           "D": D, "u": chosen.u, "v": chosen.v, "invariant": str(kind),
           "path": res["transcript"]["path"],
           "transcript": res["transcript"]}, out)
    return 0


def cmd_approx(args, out):
    basis = build_basis(Discriminant.from_D(args.disc))
    side = REAL_PART if args.variant == "real" else IMAG_PART
    trace = []
    run = run_approx(build_mpair(basis), side, N0=args.threshold, trace=trace.append)
    for row in trace:
        _emit(row, out)
    q = approx_quality(run)
    _emit({"threshold": args.threshold, "iterations": run.iters,
           "A": list(run.A), "Z": q["Z"], "ok": q["ok"]}, out)
    if not q["ok"]:
        raise InternalInvariantError("approximation quality bounds violated")
    return 0


def cmd_verify(args, out):
    try:
        if args.file and args.file != "-":
            with open(args.file) as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
        blob = json.loads(text.strip().splitlines()[0])
    except (OSError, ValueError, IndexError) as e:
        # ValueError: undecodable bytes, bad JSON or an integer of too many digits
        raise InvalidParameters(f"verify needs a curve JSON object: {e}")
    if not isinstance(blob, dict):
        raise InvalidParameters("verify needs a curve JSON object")
    p = _as_int(blob.get("p"), "p")
    a = _as_int(blob.get("a"), "a")
    b = _as_int(blob.get("b"), "b")
    j = _as_int(blob.get("j"), "j")
    order = _as_int(blob.get("order"), "order")
    D = _as_int(blob.get("D"), "D")
    u = _as_int(blob.get("u"), "u")
    v = _as_int(blob.get("v"), "v")
    validate_params(D, p, u, v)
    if order != p + 1 - u:
        raise InvalidParameters(f"order {order} != p + 1 - u = {p + 1 - u}")
    curve = make_curve(p, a, b)
    if curve.j_invariant() != j % p:
        raise InvalidParameters("stated j does not match the curve")
    why = order_mismatch(curve, order, random.Random(args.seed))
    if why:
        raise InvalidParameters(why)
    method = "naive-count" if p <= 10 ** 4 else "10-point"
    _emit({"verified": True, "p": p, "order": order, "method": method}, out)
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="cmforge",
        description="CM curves with prescribed order via genus-field class "
                    "polynomial divisors")
    ap.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("params", help="admissible (p, u, v, order) tuples")
    sp.add_argument("--disc", type=int)
    sp.add_argument("--fixed-p", type=int)
    sp.add_argument("--p-min", type=int, default=5)
    sp.add_argument("--p-max", type=int, default=1000)
    sp.add_argument("--disc-max", type=int, default=200)
    sp.set_defaults(fn=cmd_params)

    sp = sub.add_parser("classpoly", help="class polynomial or genus divisor")
    sp.add_argument("--disc", type=int, required=True)
    sp.add_argument("--invariant", default="j")
    sp.add_argument("--genus-divisor", action="store_true")
    sp.add_argument("--coset-check", action="store_true")
    sp.add_argument("--max-bits", type=int, default=DEFAULT_MAX_BITS)
    sp.set_defaults(fn=cmd_classpoly)

    sp = sub.add_parser("gencurve", help="curve with prescribed order")
    sp.add_argument("--disc", type=int, required=True)
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--invariant", default="j")
    sp.add_argument("--path", choices=("auto", "divisor", "full"),
                    default="auto")
    sp.add_argument("--max-bits", type=int, default=DEFAULT_MAX_BITS)
    sp.set_defaults(fn=cmd_gencurve)

    sp = sub.add_parser("approx", help="continued-fraction approximation trace")
    sp.add_argument("--disc", type=int, required=True)
    sp.add_argument("--threshold", type=int, required=True)
    sp.add_argument("--variant", choices=("real", "imag"), default="real")
    sp.set_defaults(fn=cmd_approx)

    sp = sub.add_parser("verify", help="independently recheck a curve JSON")
    sp.add_argument("file", nargs="?", help="file or - for stdin")
    sp.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    out = sys.stdout
    try:
        return args.fn(args, out)
    except (InvalidParameters,) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except PrecisionExhausted as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except CMForgeError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4
    except Exception:
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
