"""The Baseline figures of ROADMAP.md, pinned exactly.

Each test runs one of `scoreboard.py`'s functions and compares its
printout with the figures as they stand.  They are pins, not bounds: a
change that moves a figure, better or worse, edits its pin here in the
same diff and names the move in CHANGES.md.
"""

import scoreboard


def test_generator_restored_mismatches_and_aborts_per_loss_are_pinned():
    abort = "AssertionError: crash requires a running node"
    assert scoreboard.generator_lines() == [
        f"generator loss=0.05: 5 restored mismatches, 1 aborts (1 {abort})",
        f"generator loss=0.1: 15 restored mismatches, 2 aborts (2 {abort})",
        f"generator loss=0.25: 37 restored mismatches, 11 aborts (11 {abort})",
    ]


def test_bundled_scenarios_pass_fail_and_abort_counts_are_pinned():
    assert scoreboard.bundled_lines() == [
        "bundled seeds 1-24: 8 pass, 61 fail, 27 abort",
        "bundled seeds 1-12: 4 pass, 27 fail, 17 abort",
    ]


def test_the_piggybacked_registration_response_still_counts_as_a_retransmission():
    assert scoreboard.ret1_line() == (
        "fig12_19.scn ret=1: 2016.711 sd dir=lln effect=Updated et=5 client=cccc::3:49154 "
        "server=aaaa::c30c:0:0:2:5683 uri=gpio/btn obs=0 mid=19774 ret=1")


def test_shape_sweep_failures_per_family_are_pinned():
    assert scoreboard.shape_lines() == [
        "shapes restored failures: 78 (DELETE 48, POST load 6, Block1 PUT 24)",
        "shapes claim divergences: 90 (DELETE 36, Block1 PUT 18, Block1 POST 12, "
        "GET missing path 24)",
        "shapes failing either check: 114 of 360",
    ]
