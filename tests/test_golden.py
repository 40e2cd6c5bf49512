"""Command-line output stays byte-identical to the committed golden digests."""

import golden


def test_cli_output_matches_the_golden_digests(tmp_path):
    found, stored = golden.records(tmp_path), golden.read()
    differs = next((got[0] for got, want in zip(found, stored) if got != want), None)
    assert differs is None, f"first differing record (workload, seed, argv): {differs}"
    assert len(found) == len(stored), f"{len(found)} records against {len(stored)} stored"
