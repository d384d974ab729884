"""End-to-end command-line pipeline.

Builds a phantom spec, simulates data, inverts it, compares against the
reference field, and exports a PGM preview -- all through the ``wrtkit``
CLI entry point, in a temporary directory.  Two legs: polar data checked
against the closed form and inverted by backprojection, then perp data
checked against the closed form and inverted by the Mellin route with
the same gaussian window, which has no compact support.
"""

import json
import sys
import tempfile
from pathlib import Path

from wrtkit.cli import main as wrtkit


def run(argv):
    print("$ wrtkit " + " ".join(argv))
    rc = wrtkit(argv)
    if rc != 0:
        sys.exit(f"command failed with exit code {rc}")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        spec = tmp / "spec.json"
        spec.write_text(json.dumps({
            "kind": "gaussian",
            "components": [{"center": [0.4, -0.2], "sigma": 0.7, "amplitude": 1.0}],
        }))
        run(["phantom", "--spec", str(spec), "--out", str(tmp / "ref"),
             "--shape", "64", "--extent", "32"])
        run(["forward", "--phantom", str(spec), "--window", "gaussian:1.0",
             "--vmode", "polar", "--ndirs", "32", "--rmin", "0.02", "--rmax", "20",
             "--nr", "40", "--shape", "128", "--extent", "80",
             "--out", str(tmp / "data"), "--oracle"])
        run(["invert", "--method", "t1", "--in", str(tmp / "data"),
             "--rmin", "0.02", "--rmax", "20", "--constant-mode", "theory",
             "--shape", "64", "--extent", "32", "--out", str(tmp / "rec")])
        run(["compare", str(tmp / "rec"), str(tmp / "ref"),
             "--pgm", str(tmp / "diff.pgm")])
        run(["forward", "--phantom", str(spec), "--window", "gaussian:1.0",
             "--vmode", "perp", "--rho-min", "1e-6", "--rho-max", "16",
             "--nrho", "256", "--ntheta", "64", "--out", str(tmp / "perp"), "--oracle"])
        run(["invert", "--method", "mellin", "--in", str(tmp / "perp"), "--lmax", "16",
             "--shape", "64", "--extent", "32", "--out", str(tmp / "rec_mellin")])
        run(["compare", str(tmp / "rec_mellin"), str(tmp / "ref")])
        run(["selftest"])


if __name__ == "__main__":
    main()
