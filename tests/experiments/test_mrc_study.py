"""Conflict-miss isolation study."""

import pytest

from repro.cli import main
from repro.errors import ExperimentError
from repro.experiments import render_mrc, run_mrc_study


@pytest.fixture(scope="module")
def curves():
    return run_mrc_study()


class TestMrcStudy:
    def test_schemes_covered(self, curves):
        assert [c.scheme for c in curves] == ["rm", "mo", "ho"]

    def test_capacity_misses_monotone_in_u(self, curves):
        for c in curves:
            us = sorted(c.mpi_capacity)
            vals = [c.mpi_capacity[u] for u in us]
            assert vals == sorted(vals)

    def test_rm_conflict_dominated_out_of_cache(self, curves):
        # At the paper's power-of-two sizes, RM's column stride makes most
        # of its out-of-cache misses conflict misses.
        rm = curves[0]
        assert rm.conflict_share(4.0) > 0.5

    def test_hilbert_conflict_free(self, curves):
        ho = curves[2]
        for u in ho.mpi_capacity:
            assert ho.conflict_share(u) < 0.10

    def test_conflict_share_clamped(self, curves):
        # Set-associative LRU can legitimately *beat* fully-associative
        # LRU on cyclic sweeps (the partition breaks the pathological
        # evict-what-is-needed-next chain), so total < capacity is
        # possible; the share metric must clamp at zero rather than go
        # negative.
        for c in curves:
            for u in c.mpi_capacity:
                assert 0.0 <= c.conflict_share(u) <= 1.0

    def test_set_assoc_beats_full_lru_on_sweep(self, curves):
        # The anomaly above actually occurs in this data (MO at u=2):
        # keep a record of it so a regression in either simulator or the
        # stack algorithm shows up.
        mo = curves[1]
        assert mo.mpi_total[2.0] < mo.mpi_capacity[2.0]

    def test_render(self, curves):
        text = render_mrc(curves)
        assert "cnfl%" in text
        assert "RM cap" in text

    def test_validation(self):
        with pytest.raises(ExperimentError):
            run_mrc_study(sample_rows=0)
        with pytest.raises(ExperimentError):
            render_mrc([])

    def test_pool_matches_serial(self):
        kw = dict(n=16, sample_rows=2, u_values=(1.0, 4.0))
        assert run_mrc_study(workers=2, **kw) == run_mrc_study(**kw)

    def test_rows_past_the_matrix_refused_up_front(self, tmp_path):
        # Rows n//2 .. n//2 + sample_rows - 1 are sampled; n=16 holds 8
        # of them.  The check runs before the journal is opened.
        journal = tmp_path / "mrc.journal"
        with pytest.raises(ExperimentError, match="sample_rows"):
            run_mrc_study(n=16, sample_rows=9, checkpoint=journal)
        assert not journal.exists()

    def test_cli_rows_past_the_matrix_start_no_pool(self, capsys):
        assert main(["mrc", "--n", "16", "--rows", "12", "--workers", "2"]) == 1
        err = capsys.readouterr().err
        assert "sample_rows" in err and "pool worker" not in err

    @pytest.mark.parametrize("n,schemes", [(16, ("rm", "mo", "ho")),
                                           (15, ("rm",))])
    def test_rows_up_to_the_last_run(self, n, schemes):
        curves = run_mrc_study(n=n, schemes=schemes, u_values=(1.0,),
                               sample_rows=n - n // 2)
        assert [c.scheme for c in curves] == list(schemes)
