"""The CLI's outputs against the committed ``golden/outputs.json``.

Where this environment (numpy, BLAS, machine) is the one the file was made
in, every output file must hash as recorded. Elsewhere the reports' numbers
and the first embedding rows must agree within a tolerance, and the test
warns that it compared them so. ``golden/regen.py`` rewrites the file.
"""

import json
import math
import warnings

from golden.regen import OUTPUTS, PRECISIONS, run_pipeline

TOLERANCE = {"f64": 1e-12, "f32": 1e-5}


def test_outputs_match_the_golden_file(tmp_path):
    want = json.loads(OUTPUTS.read_text())
    got = run_pipeline(tmp_path)
    if got["environment"] == want["environment"]:
        assert got["input"] == want["input"], "the synthetic input molecules moved"
        for part in ("featurize", *PRECISIONS):
            assert sorted(got[part]["digests"]) == sorted(want[part]["digests"]), part
            moved = [name for name, digest in want[part]["digests"].items()
                     if got[part]["digests"][name] != digest]
            assert not moved, f"{part} outputs moved: {moved}"
        return
    warnings.warn(f"environment {got['environment']} is not the golden file's "
                  f"{want['environment']}: compared numbers within {TOLERANCE}, not digests")
    for precision in PRECISIONS:
        got_floats, want_floats = got[precision]["floats"], want[precision]["floats"]
        assert sorted(got_floats) == sorted(want_floats), precision
        tol = TOLERANCE[precision]
        moved = [key for key, value in want_floats.items()
                 if not math.isclose(got_floats[key], value, rel_tol=tol, abs_tol=tol)]
        assert not moved, f"{precision} numbers moved beyond {tol}: {moved[:10]}"
