"""The ``gsl`` console script, through ``main(argv)``."""

import json

from gsl import cli

from test_hopf import _noncoassociative


def _run(capsys, argv):
    code = cli.main(argv)
    return code, json.loads(capsys.readouterr().out)


def test_verify_prints_an_ok_report(capsys):
    code, out = _run(capsys, ["verify", "SL2_kerF(1)", "--field", "GF(3)"])
    assert code == 0
    assert out == {"ok": True, "dim": 27, "failures": []}


def test_verify_prints_each_failure_and_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "zoo_parse", lambda cid, F: _noncoassociative())
    code, out = _run(capsys, ["verify", "D(2)"])
    assert code == 1
    assert out["ok"] is False and out["dim"] == 4
    assert {"axiom": "coassociative", "where": "T",
            "residual": "T*T'^2*T''^2"} in out["failures"]


def test_malformed_id_is_an_error(capsys):
    code, out = _run(capsys, ["verify", "SL2_kerF(1"])
    assert code == 2
    assert out == {"error": "ParseError",
                   "message": "unbalanced parentheses in 'SL2_kerF(1'"}


def test_bad_field_name_is_an_error(capsys):
    code, out = _run(capsys, ["verify", "alpha(1)", "--field", "GF(x)"])
    assert code == 2
    assert out == {"error": "ParseError", "message": "bad field name 'GF(x)'"}


def test_field_of_size_zero_is_an_error(capsys):
    code, out = _run(capsys, ["verify", "alpha(1)", "--field", "GF(0)"])
    assert code == 2
    assert out == {"error": "ParseError",
                   "message": "field size 0 is not a power of 2, 3 or 5"}
