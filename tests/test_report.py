"""CppReport.to_json renders its elements block itself: it must stay the
bytes of json.dumps(to_dict(), sort_keys=True, indent=2) plus a newline."""

import json

import pytest

from cppforge.report import CppReport


def _report(elements, conditions=None):
    return CppReport(p=11, n=6, modulus=(2, 1, 0, 0, 0, 0, 1), d=177157,
                     method="ha", count=len(elements or ()),
                     conditions=conditions or {}, elements=elements,
                     seconds=1.2345)


@pytest.mark.parametrize("count", [0, 1, 6110])
def test_to_json_matches_the_indented_encoder(count):
    r = _report(list(range(10 ** 6, 10 ** 6 - 97 * count, -97)),
                {"r6:2": 3, "nested": {"b": [1, 2], "a": "x\ny"}})
    assert len(r.elements) == count
    assert r.to_json() == json.dumps(r.to_dict(), sort_keys=True, indent=2) + "\n"


def test_to_json_without_elements():
    r = _report(None)
    assert "elements" not in r.to_dict()
    assert r.to_json() == json.dumps(r.to_dict(), sort_keys=True, indent=2) + "\n"
