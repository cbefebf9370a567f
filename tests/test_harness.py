"""Smoke tests of the experiment harness: every figure driver runs,
produces the expected series, and prints paper-vs-ours comparisons."""

import pytest

from repro.harness import (
    fig1_partitioning,
    fig3_kernel_tiers,
    fig4_ecm_frequency,
    fig5_smt,
    fig6_weak_dense,
    fig7_weak_coronary,
    fig8_strong_coronary,
    format_comparison,
    format_table,
    measure_host_kernel_mlups,
    paper_coronary_tree,
    print_header,
    roofline_summary,
)
from repro.perf import VesselBlockModel


@pytest.fixture(scope="module")
def small_block_model():
    # A small sampled model keeps the harness smoke tests fast.
    return VesselBlockModel(paper_coronary_tree(), samples=40_000)


class TestReportHelpers:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [10, 0.125]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(l) == len(lines[0]) for l in lines[1:])

    def test_format_comparison(self):
        line = format_comparison("x", "1", "2", note="n")
        assert "paper: 1" in line and "ours: 2" in line and "(n)" in line

    def test_print_header(self):
        out = print_header("Title")
        assert "Title" in out and "=" in out


class TestFigureDrivers:
    def test_fig1(self, small_block_model):
        r = fig1_partitioning(small_block_model, targets=(256,))
        assert r.series[256] <= 256
        assert "Figure 1" in r.report

    def test_fig3(self):
        r = fig3_kernel_tiers(cells=(16, 16, 16), steps=2)
        assert r.series["vectorized/TRT"] > 0
        assert r.series["compiled/TRT"] > 0
        assert "Figure 3" in r.report
        assert "87.8" in r.report  # SuperMUC model curve saturates there

    def test_fig4(self):
        r = fig4_ecm_frequency()
        assert r.series["saturation_cores_2.7"] == 6
        assert "1.6 GHz" in r.report

    def test_fig5(self):
        r = fig5_smt()
        assert set(r.series) == {1, 2, 4}
        assert "Figure 5" in r.report

    def test_fig6(self):
        r = fig6_weak_dense(core_exponents=(5, 10))
        assert "SuperMUC/16P1T" in r.series
        assert "JUQUEEN/8P8T" in r.series
        assert "837" in r.report

    def test_fig7(self, small_block_model):
        r = fig7_weak_coronary(small_block_model, core_exponents=(9, 13))
        assert len(r.series["JUQUEEN"]) >= 2
        assert "fluid frac" in r.report

    def test_fig8(self, small_block_model):
        r = fig8_strong_coronary(
            small_block_model,
            resolutions=(1e-4,),
            core_exponents_supermuc=(4, 11),
            core_exponents_juqueen=(9, 13),
        )
        assert "SuperMUC/0.10mm" in r.series
        assert "steps/s" in r.report

    def test_roofline(self):
        r = roofline_summary()
        assert r.series["host_bound_mlups"] > 0
        assert "87.8" in r.report

    def test_host_kernel_measurement(self):
        rate = measure_host_kernel_mlups("d3q19", (12, 12, 12), steps=2)
        assert rate > 0.01

    def test_csv_export(self, tmp_path):
        r = fig6_weak_dense(core_exponents=(5, 10))
        paths = r.to_csv(str(tmp_path))
        assert len(paths) == 6  # one CSV per machine/config series
        import csv

        with open(paths[0]) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "cores"
        assert len(rows) == 3  # header + two core counts

    def test_csv_export_scalars(self, tmp_path):
        r = fig4_ecm_frequency()
        paths = r.to_csv(str(tmp_path))
        assert len(paths) == 1 and paths[0].endswith("fig4_summary.csv")
