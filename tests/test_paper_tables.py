"""Pinned values of the paper's tables and figures.

``TestReporting`` (test_cli.py) checks only their structure; these
digests catch a silently changed number.  Each is the sha256 of the
JSON-encoded ``(header, rows)`` a trimmed ``repro.reporting`` generator
returns — the same grids ``repro figure N`` prints without ``--full``
(Figs 6 and 7 cut to widths 5, 10, 20 to keep the simulations short).
A refactor of the shape algebra, the cost formulas or the simulator
must leave every one of them unchanged.
"""

import hashlib
import json

import pytest

from repro import reporting

TABLES = {
    "table1": (reporting.table1,
               "6e004022484793c256058a431bd88fd33136171ffbae421fe86ad77a18f7518d"),
    "table2": (reporting.table2,
               "c27e1930e0080fa441f27da5f293413c11d7e911600469ab0ec88bb046c2e2c4"),
    "table3": (reporting.table3,
               "8ba649d72f4e25985c9090bcc5c054d5fa9ba7b1baab6a6b4daeb32a3ef1cbf1"),
    "figure4": (reporting.figure4,
                "87ec44b012f4cabe2f1dd1f94fee0ee01e81a89f12f0f0d3951813027fca0170"),
    "figure5": (reporting.figure5,
                "624da452b1ac3b7f9cb725046707ebe83ce4684bac93669fbb2f474a22e09322"),
    "figure6": (lambda: reporting.figure6_7(2, widths=(5, 10, 20)),
                "5236a11bb84f08b192e014b9e47d9ea16cba3b981665b8e44ecb93a870d81886"),
    "figure7": (lambda: reporting.figure6_7(3, widths=(5, 10, 20)),
                "762b12767bbd7cce500f065229e3058a6236a4b2cca2ffa10d590bd6a1b30e8b"),
    "figure8": (reporting.figure8,
                "792ffbca135d11a6dde9320b450527d573743820ec3dd970dc5a397c1ad3413d"),
    "figure9": (reporting.figure9,
                "a0eb1efe839f2e942c893ad34087b8accadd58094fab4b3f19c95cbcb77b88d8"),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_rows_match_pinned_digest(name):
    generate, digest = TABLES[name]
    encoded = json.dumps(generate()).encode()
    assert hashlib.sha256(encoded).hexdigest() == digest
