"""README.md shows real output: the library tour's emitted nest and the
command-line round trip's verify transcript are computed here and must
appear in it verbatim."""

from __future__ import annotations

import contextlib
import io
import pathlib

from clocksched import build_schedule, emit, make_clock
from clocksched.cli import main

README = (pathlib.Path(__file__).parent.parent / "README.md").read_text()


def test_readme_library_tour_prints_the_emitted_nest():
    src = "space I[2], J[2], K[2];\na(I,J) += b(I,K)*c(K,J);\n"
    tree = build_schedule(src, clock=make_clock(3), assignment={"K": 8, "I": 4, "J": 2})
    shown = "print(emit(tree))\n" + "".join(f"# {line}\n" for line in emit(tree).splitlines())
    assert shown in README


def test_readme_round_trip_prints_the_verify_transcript(tmp_path):
    spec = tmp_path / "t.spec"
    spec.write_text("space I[4], J[4];\na(I,J) = a(J,I);\n")
    doc = tmp_path / "t.json"
    flags = ["--clock", "3x2", "--map", "T=8,I=4,J=2", "--temp-budget", "2"]
    assert main(["transform", str(spec), *flags, "-o", str(doc)]) == 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", str(doc)]) == 0
    transcript = (
        f"$ clocksched transform t.spec {' '.join(flags)} -o t.json\n"
        f"$ clocksched verify t.json\n{out.getvalue()}"
    )
    assert transcript in README
