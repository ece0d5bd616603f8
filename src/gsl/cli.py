"""The ``gsl`` console script.

    gsl verify <catalogue id> [--field GF(q)]

builds a catalogue group (``zoo_parse``) over the field (GF(2) unless
given) and prints its ``hopf_verify`` report as JSON: ``ok``, ``dim`` and
each failure as {axiom, where, residual}, the residual printed.  The exit
status is 0 when the report is ok and 1 when not; a GslError (a malformed
id, a bad field name, a refused size) prints {error, message} and exits
with 2.
"""

import argparse
import json
import sys

from .errors import GslError
from .gf import field_from_name
from .hopf import hopf_verify
from .zoo import zoo_parse


def _verify(args):
    H = zoo_parse(args.id, field_from_name(args.field))
    rep = hopf_verify(H)
    failures = [{"axiom": f.axiom, "where": f.where,
                 "residual": str(f.residual)} for f in rep["failures"]]
    return {"ok": rep["ok"], "dim": H.dim, "failures": failures}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="gsl")
    commands = parser.add_subparsers(dest="command", required=True)
    verify = commands.add_parser("verify", help="check the Hopf axioms of a "
                                 "catalogue group")
    verify.add_argument("id", help='a catalogue id, such as "SL2_kerF(1)"')
    verify.add_argument("--field", default="GF(2)",
                        help="the coefficient field, such as GF(3) or GF(2^2)")
    args = parser.parse_args(argv)
    try:
        out = _verify(args)
    except GslError as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}))
        return 2
    print(json.dumps(out, indent=2))
    return 0 if out["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
