"""Byte identity of keys, verdicts and minor scans over every 4-edge class.

One digest covers what refactors of the core must leave unchanged: the
canonical key, the ``represents_link`` verdict with its certificate, and
the excluded-minor scripts of each class, in enumeration order.
"""

import hashlib
import json

from ribbonforge import (
    canonical_key,
    enumerate_presentations,
    excluded_minor_scan,
    represents_link,
)

DIGEST = "93c8aa62d30cdb6eff063dfd2c18aacdefa174e1c96b40d6252de0d56b4b53cd"


def test_four_edge_classes_are_byte_identical():
    h = hashlib.sha256()
    for g in enumerate_presentations(4):
        verdict = represents_link(g).as_dict()
        scan = {k: v.as_json() for k, v in sorted(excluded_minor_scan(g).items())}
        h.update(canonical_key(g) + b"\n")
        for record in (verdict, scan):
            h.update((json.dumps(record, sort_keys=True) + "\n").encode())
    assert h.hexdigest() == DIGEST
