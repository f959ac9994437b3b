"""Sweep configs, CSV emission, determinism, and figure reproduction."""

import dataclasses
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

from mirrorqed import (cavity, dynamics, errors, freespace, geometry, mirror,
                       sweeps)

MIRROR_HEADER = (
    "d_over_lambda0,k0d,re_r,ratio_closed,ratio_quadrature,"
    "abs_diff,err_estimate,method,status"
)
CAVITY_HEADER = (
    "k0d,r_mir,ratio_quadrature,ratio_series,ratio_limit_2nd,"
    "err_estimate,status,method"
)
LINDBLAD_HEADER = "t,pop_jc,pop_single_rate,pop_jump_mean,pop_jump_stderr,method,status"


def read_csv(path):
    """Split a sweep CSV into (preamble_text, header, rows-of-strings)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    preamble = [line[2:] for line in lines if line.startswith("# ")]
    body = [line for line in lines if not line.startswith("# ")]
    return "\n".join(preamble), body[0], [line.split(",") for line in body[1:]]


def assert_no_ok_row_is_negative(header, rows):
    names = header.split(",")
    ratio_columns = [n for n in names if n.startswith("ratio_")]
    assert rows
    for row in rows:
        cells = dict(zip(names, row))
        if cells["status"] == "ok":
            assert all(float(cells[c]) >= 0.0 for c in ratio_columns
                       if cells[c]), cells


class TestRange:
    def test_parse_three_and_four_parts(self):
        assert sweeps.Range.parse("0:2:5") == sweeps.Range(0.0, 2.0, 5)
        assert sweeps.Range.parse("0.1:10:50:log") == sweeps.Range(
            0.1, 10.0, 50, "log"
        )

    def test_dump_round_trip(self):
        for rng in [sweeps.Range(0.0, 3.0, 31), sweeps.Range(1e-4, 0.3, 200, "log")]:
            assert sweeps.Range.parse(rng.dump()) == rng

    def test_values(self):
        np.testing.assert_allclose(
            sweeps.Range(0.0, 1.0, 5).values(), [0.0, 0.25, 0.5, 0.75, 1.0]
        )
        vals = sweeps.Range(0.1, 10.0, 3, "log").values()
        np.testing.assert_allclose(vals, [0.1, 1.0, 10.0], rtol=1e-12)

    @pytest.mark.parametrize(
        "text",
        ["1:2", "1:2:3:4:5", "a:2:3", "0:2:1", "2:1:5", "0:1:5:log", "1:2:3:cubic",
         # a span that is not finite: linspace would start at nan
         "0.1:inf:3", "0.1:1e400:3", "-1e308:1e308:3", "0:1e400:3"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(errors.ConfigError):
            sweeps.Range.parse(text)


class TestSweepConfig:
    def test_defaults_validate(self):
        cfg = sweeps.SweepConfig(target="cavity")
        cfg.validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(target="nonsense"),
            dict(target="mirror", method="series"),
            dict(target="validate"),
            dict(target="figure"),
            dict(target="cavity", k0d=1.0, d_over_lambda0=0.5),
            dict(target="cavity", r=sweeps.Range(0, 0.5, 3), k0d=sweeps.Range(1, 2, 3)),
            dict(target="cavity", t=sweeps.Range(0, 3, 5)),
            dict(target="lindblad", t=sweeps.Range(-1.0, 3.0, 5)),
            dict(target="cavity", tol=0.0),
            dict(target="lindblad", n_traj=0),
            dict(target="cavity", out="run #1.csv"),
            dict(target="cavity", out="#1.csv"),
            dict(target="cavity", out=" run.csv"),
            dict(target="cavity", out="run\n.csv"),
            dict(target="cavity", out="none"),
            dict(target="cavity", tail_tol=0.0),
            dict(target="cavity", tail_tol=math.inf),
            dict(target="cavity", tail_tol=math.nan),
            dict(target="cavity", tail_tol=-1e-8),
        ],
    )
    def test_validate_rejects(self, kwargs):
        with pytest.raises(errors.ConfigError):
            sweeps.SweepConfig(**kwargs).validate()

    def test_unset_keys_take_the_target_defaults(self):
        cfg = sweeps.SweepConfig(target="optical")
        assert (cfg.r, cfg.method) == (0.8, "quadrature")
        assert cfg.k0d == sweeps.Range(20.0 * math.pi, 50.0 * math.pi, 25)
        assert cfg.d_over_lambda0 is None and cfg.t is None
        # a named separation replaces the default one
        cfg = sweeps.SweepConfig(target="mirror", k0d=1.0)
        assert (cfg.r, cfg.k0d, cfg.d_over_lambda0) == (-1.0, 1.0, None)
        assert sweeps.SweepConfig(target="lindblad").t == sweeps.Range(
            0.0, 3.0, 31)
        # an unset axis in config text is unset, so it takes the default
        items = sweeps.parse_config_items("target = cavity\nr = none\n")
        assert sweeps.config_from_items(items).r == 0.5

    def test_sweeping_another_axis_names_the_default_axis_flag(self):
        with pytest.raises(errors.ConfigError, match="--r"):
            sweeps.SweepConfig(target="subwavelength",
                               k0d=sweeps.Range(0.01, 0.1, 3))

    @pytest.mark.parametrize("line", ["method = none", "method = "])
    def test_method_text_must_name_a_route(self, line):
        items = sweeps.parse_config_items(f"target = cavity\n{line}\n")
        with pytest.raises(errors.ConfigError, match="method"):
            sweeps.config_from_items(items)

    def test_size_caps_admit_the_cap_and_reject_one_more(self):
        n = sweeps._MAX_GRID_POINTS
        for target, axis in (("mirror", "d_over_lambda0"), ("lindblad", "t")):
            sweeps.SweepConfig(target=target,
                               **{axis: sweeps.Range(0.0, 1.0, n)}).validate()
            with pytest.raises(errors.ConfigError, match="memory budget"):
                sweeps.SweepConfig(
                    target=target,
                    **{axis: sweeps.Range(0.0, 1.0, n + 1)}).validate()
        sweeps.SweepConfig(target="lindblad",
                           n_traj=errors.MAX_TRAJECTORIES).validate()
        with pytest.raises(errors.ConfigError, match="memory budget"):
            sweeps.SweepConfig(target="lindblad",
                               n_traj=errors.MAX_TRAJECTORIES + 1).validate()

    def test_numpy_numbers_dump_as_plain_numbers(self):
        # the gate admits numpy scalars; the preamble once recorded
        # "r = np.float64(0.5)", which does not read back, and a float32
        # as its short text, which is not the value the sweep ran at
        cfg = sweeps.SweepConfig(
            target="cavity", r=np.float64(0.5), tol=np.float32(0.1),
            k0d=sweeps.Range(np.float64(0.1), np.int64(2), np.int64(3)))
        cfg.validate()
        text = sweeps.dump_config(cfg)
        assert "r = 0.5\n" in text and "k0d = 0.1:2:3:linear\n" in text
        items = sweeps.parse_config_items(text)
        assert (items["r"], items["tol"]) == (0.5, float(np.float32(0.1)))

    def test_dump_parse_round_trip(self):
        configs = [
            sweeps.SweepConfig(target="mirror", r=-1.0,
                               d_over_lambda0=sweeps.Range(0.01, 3.0, 101)),
            sweeps.SweepConfig(target="cavity", r=0.8,
                               k0d=sweeps.Range(0.1, 10.0, 50, "log"), tol=1e-10),
            sweeps.SweepConfig(target="lindblad", t=sweeps.Range(0.0, 3.0, 31),
                               g=2.0, gamma_cav=1.5, n_traj=77),
        ]
        for cfg in configs:
            text = sweeps.dump_config(cfg)
            again = sweeps.config_from_items(sweeps.parse_config_items(text))
            assert again == cfg

    @pytest.mark.parametrize(
        "cfg",
        [
            sweeps.SweepConfig(
                target="cavity", r=0.8, k0d=sweeps.Range(0.1, 10.0, 50, "log"),
                d_over_lambda0=0.25, t=sweeps.Range(0.0, 1.0, 3),
                method="series", tol=1e-10, tail_tol=1e-6, g=2.0,
                kappa=3.5, gamma=0.5, gamma_cav=1.5, n_traj=77, seed=0,
                out="run.csv"),
            sweeps.SweepConfig(
                target="lindblad", r=sweeps.Range(-0.5, 0.5, 3), k0d=0.3,
                d_over_lambda0=sweeps.Range(0.1, 1.0, 4),
                t=sweeps.Range(0.01, 3.0, 31, "log"), method="quadrature",
                tol=0.5, tail_tol=0.25, g=0.0,
                kappa=0.0, gamma=0.0, gamma_cav=0.0, n_traj=1, seed=2**40,
                out="none.csv"),
        ],
        ids=["rate", "lindblad"],
    )
    def test_every_field_round_trips_through_text(self, cfg):
        # the text layer alone: these configs need not pass validate()
        for f in dataclasses.fields(sweeps.SweepConfig):
            if f.default is not dataclasses.MISSING:
                assert getattr(cfg, f.name) != f.default, f.name
        items = sweeps.parse_config_items(sweeps.dump_config(cfg))
        assert sweeps.SweepConfig(**items) == cfg

    def test_quick_is_neither_a_field_nor_a_parameter(self, tmp_path):
        with pytest.raises(TypeError):
            sweeps.SweepConfig(target="mirror", quick=True)
        with pytest.raises(TypeError):
            sweeps.reproduce_figure("mirror_dielectric",
                                    outdir=str(tmp_path), quick=True)
        assert not os.listdir(tmp_path)

    def test_n_max_is_not_a_field(self):
        # the series order is derived from tail_tol (cavity.default_n_max)
        with pytest.raises(TypeError):
            sweeps.SweepConfig(target="cavity", n_max=50)

    def test_max_evals_is_not_a_field(self):
        # every quadrature cell runs at geometry.DEFAULT_MAX_EVALS
        with pytest.raises(TypeError):
            sweeps.SweepConfig(target="cavity", max_evals=10_000)

    @pytest.mark.parametrize(
        "line",
        ["quick = true", "n_traj = 1.5", "t = 0.5", "tol = none",
         "n_fock = 5", "dt = 0.001", "figure = none"],
    )
    def test_parse_rejects_bad_line(self, line):
        with pytest.raises(errors.ConfigError):
            sweeps.parse_config_items(f"target = lindblad\n{line}\n")

    def test_parse_skips_comments_and_blanks(self):
        # only a '#' at line start or after whitespace opens a comment
        items = sweeps.parse_config_items(
            "# leading comment\n\ntarget = cavity  # trailing\nr = 0.5\n"
            "out = run#1.csv\t# tab\n"
        )
        assert items == {"target": "cavity", "r": 0.5, "out": "run#1.csv"}

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(errors.ConfigError, match="unknown config key"):
            sweeps.parse_config_items("target = cavity\nbogus = 1\n")

    def test_parse_rejects_bare_line(self):
        with pytest.raises(errors.ConfigError, match="key = value"):
            sweeps.parse_config_items("just some words\n")

    def test_config_requires_target(self):
        with pytest.raises(errors.ConfigError, match="target"):
            sweeps.config_from_items({"r": 0.5})


@pytest.mark.parametrize("route,args,keyword", [
    (mirror.gamma_mirror_quadrature, (-1.0, 1.0),
     {"dhat": geometry.DipoleOrientation()}),
    (cavity.gamma_cavity_quadrature, (0.5, 1.0),
     {"dhat": geometry.DipoleOrientation()}),
    (freespace.gamma_free_quadrature,
     (freespace.EmitterSpec(omega0=1e15, dipole_magnitude=1e-29),),
     {"tol": 1e-10}),
    (freespace.EmitterSpec, (1e15, 1e-29),
     {"dhat": geometry.DipoleOrientation()}),
], ids=["mirror-dhat", "cavity-dhat", "freespace-tol", "emitter-dhat"])
def test_removed_route_keywords(route, args, keyword):
    # the rate routes compute the in-plane dipole, the free-space
    # quadrature runs at one tolerance, and free space is isotropic, so
    # an emitter has no orientation
    with pytest.raises(TypeError):
        route(*args, **keyword)


def test_numpy_scalar_cells_write_as_plain_numbers():
    values = np.array([np.float64(0.1), 0.1, math.nan])
    assert sweeps._column_text(values, 3) == ["0.1", "0.1", "nan"]
    shown = (values, np.array([True, False, True]))
    assert sweeps._column_text(shown, 3) == ["0.1", "", "nan"]
    assert sweeps._column_text("all", 2) == ["all", "all"]


class TestRateSweeps:
    def test_mirror_single_row(self, tmp_path):
        out = str(tmp_path / "m.csv")
        cfg = sweeps.SweepConfig(target="mirror", r=-1.0, d_over_lambda0=0.25,
                                 out=out)
        assert sweeps.run_sweep(cfg) == 0
        preamble, header, rows = read_csv(out)
        assert header == MIRROR_HEADER
        assert len(rows) == 1
        row = dict(zip(header.split(","), rows[0]))
        assert float(row["d_over_lambda0"]) == 0.25
        assert float(row["k0d"]) == pytest.approx(math.pi / 2, rel=1e-15)
        assert float(row["ratio_closed"]) == pytest.approx(1.1519817754635067, abs=1e-12)
        assert float(row["ratio_quadrature"]) == pytest.approx(
            1.1519817754635067, abs=1e-9
        )
        assert float(row["abs_diff"]) <= float(row["err_estimate"])
        assert row["status"] == "ok"
        # the preamble is the canonical config dump
        assert sweeps.config_from_items(sweeps.parse_config_items(preamble)) == cfg

    def test_cavity_single_row_all_methods(self, tmp_path):
        out = str(tmp_path / "c.csv")
        cfg = sweeps.SweepConfig(target="cavity", r=0.9, k0d=1e-3, out=out)
        assert sweeps.run_sweep(cfg) == 0
        _, header, rows = read_csv(out)
        assert header == CAVITY_HEADER
        row = dict(zip(header.split(","), rows[0]))
        assert float(row["ratio_quadrature"]) == pytest.approx(
            18.999316039608285, rel=1e-9
        )
        assert float(row["ratio_series"]) == pytest.approx(18.999316039608285, rel=1e-6)
        assert float(row["ratio_limit_2nd"]) == pytest.approx(18.999316, rel=1e-6)
        assert row["method"] == "all"

    def test_second_order_column_empty_far_from_contact(self, tmp_path):
        out = str(tmp_path / "far.csv")
        cfg = sweeps.SweepConfig(target="cavity", r=0.5, k0d=2.0, out=out)
        assert sweeps.run_sweep(cfg) == 0
        _, header, rows = read_csv(out)
        row = dict(zip(header.split(","), rows[0]))
        assert row["ratio_limit_2nd"] == ""

    def test_swept_axis_ordering(self, tmp_path):
        full = str(tmp_path / "full.csv")
        cfg = sweeps.SweepConfig(target="subwavelength",
                                 r=sweeps.Range(-0.9, 0.9, 181), k0d=0.01,
                                 method="limit", out=full)
        assert sweeps.run_sweep(cfg) == 0
        _, _, rows = read_csv(full)
        assert len(rows) == 181
        rs = [float(r[1]) for r in rows]
        assert rs == sorted(rs)

    def test_deterministic_bytes(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for out in (a, b):
            cfg = sweeps.SweepConfig(target="mirror", r=-1.0,
                                     d_over_lambda0=sweeps.Range(0.0, 2.0, 11),
                                     out=out)
            assert sweeps.run_sweep(cfg) == 0
        bytes_a = open(a, "rb").read().replace(b"a.csv", b"X.csv")
        bytes_b = open(b, "rb").read().replace(b"b.csv", b"X.csv")
        assert bytes_a == bytes_b

    def test_failed_cell_marks_status_and_exit_code(self, tmp_path, capsys):
        out = str(tmp_path / "hard.csv")
        # the default budget refuses this cell before any evaluation
        cfg = sweeps.SweepConfig(target="cavity", r=0.999, k0d=2e6,
                                 method="quadrature", out=out)
        assert sweeps.run_sweep(cfg) == 3
        _, header, rows = read_csv(out)
        row = dict(zip(header.split(","), rows[0]))
        assert row["status"] == "NonConvergence"
        assert row["ratio_quadrature"] == "nan"
        err = capsys.readouterr().err
        assert "failed" in err

    def test_no_ok_row_holds_a_negative_ratio(self, tmp_path):
        # at r = 0.98, k0d = 0.11 the second order reads -1074.94: its
        # first correction, 0.4 r k0d^2 / (1 - r)^2 = 11.9, is past the
        # leading term, so the column is left empty
        out = str(tmp_path / "negative.csv")
        cfg = sweeps.SweepConfig(target="cavity", method="all", r=0.98,
                                 k0d=0.11, out=out)
        assert sweeps.run_sweep(cfg) == 0
        _, header, rows = read_csv(out)
        assert_no_ok_row_is_negative(header, rows)
        row = dict(zip(header.split(","), rows[0]))
        assert row["ratio_limit_2nd"] == ""
        # the row's error is the larger of the two routes that ran
        quad = cavity.gamma_cavity_quadrature(0.98, 0.11)
        series = cavity.gamma_cavity_series(0.98, 0.11)
        assert float(row["err_estimate"]) == max(quad.err_estimate,
                                                 series.err_estimate)

    def test_second_order_mask_leaves_refused_cells_to_the_route(
            self, tmp_path):
        out = str(tmp_path / "degenerate.csv")
        cfg = sweeps.SweepConfig(target="subwavelength", method="limit",
                                 r=sweeps.Range(0.5, 1.5, 3), k0d=0.1,
                                 out=out)
        assert sweeps.run_sweep(cfg) == 3
        _, header, rows = read_csv(out)
        cells = [dict(zip(header.split(","), row)) for row in rows]
        assert [c["r_mir"] for c in cells] == ["0.5", "1.0", "1.5"]
        assert [c["status"] for c in cells] == ["ok", "DegenerateMirror",
                                                "DegenerateMirror"]
        assert float(cells[0]["ratio_limit_2nd"]) == (
            cavity.gamma_subwavelength_2nd(0.5, 0.1).ratio)

    @pytest.mark.parametrize("tail_tol", [1e-2, 1e-5, 1e-8, 1e-13])
    @pytest.mark.parametrize("target", ["cavity", "subwavelength", "optical"])
    def test_series_column_runs_at_the_configured_tail_tol(self, tmp_path,
                                                           target, tail_tol):
        # tail_tol is the series' one control: every row, failed or not, is
        # the route's own cell at that tail_tol (at 1e-13 the rounding floor
        # fails the subwavelength rows near |r| = 1 with TailTooLarge)
        out = str(tmp_path / "series.csv")
        cfg = sweeps.SweepConfig(target=target, method="series",
                                 tail_tol=tail_tol, out=out)
        code = sweeps.run_sweep(cfg)
        _, header, rows = read_csv(out)
        assert len(rows) == (cfg.r if isinstance(cfg.r, sweeps.Range)
                             else cfg.k0d).count
        n_failed = 0
        for row in rows:
            cells = dict(zip(header.split(","), row))
            r, k0d = float(cells["r_mir"]), float(cells["k0d"])
            try:
                cell = cavity.gamma_cavity_series(r, k0d, tail_tol=tail_tol)
            except errors.MirrorQEDError as exc:
                assert cells["status"] == type(exc).__name__
                assert cells["ratio_series"] == "nan"
                n_failed += 1
                continue
            assert cells["status"] == "ok"
            assert float(cells["err_estimate"]) == cell.err_estimate
            assert cell.err_estimate <= tail_tol
            assert abs(float(cells["ratio_series"]) - cell.ratio) <= 1e-13
        assert code == (3 if n_failed else 0)

    def test_cavity_sweep_starts_no_thread(self, tmp_path, monkeypatch):
        def refuse(self):
            raise RuntimeError("a rate sweep must not start threads")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        out = str(tmp_path / "serial.csv")
        cfg = sweeps.SweepConfig(target="cavity", r=0.5,
                                 k0d=sweeps.Range(0.05, 0.45, 5), out=out)
        assert sweeps.run_sweep(cfg) == 0
        _, header, rows = read_csv(out)
        assert header == CAVITY_HEADER
        assert len(rows) == 5
        assert all(row[-2] == "ok" for row in rows)

    def test_one_route_call_per_sweep(self, tmp_path, monkeypatch):
        calls = {}

        def counted(module, name):
            route = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return route(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for module, name in ((mirror, "gamma_mirror_closed"),
                             (mirror, "gamma_mirror_quadrature"),
                             (cavity, "gamma_cavity_series"),
                             (cavity, "gamma_cavity_quadrature"),
                             (cavity, "gamma_subwavelength_2nd")):
            counted(module, name)
        mirror_cfg = sweeps.SweepConfig(
            target="mirror", r=-1.0, d_over_lambda0=sweeps.Range(0.0, 2.0, 30),
            out=str(tmp_path / "m.csv"))
        cavity_cfg = sweeps.SweepConfig(
            target="cavity", r=0.5, k0d=sweeps.Range(0.05, 0.45, 12),
            out=str(tmp_path / "c.csv"))
        assert sweeps.run_sweep(mirror_cfg) == 0
        assert sweeps.run_sweep(cavity_cfg) == 0
        assert calls == {"gamma_mirror_closed": 1,
                         "gamma_mirror_quadrature": 1,
                         "gamma_cavity_quadrature": 1,
                         "gamma_cavity_series": 1,
                         "gamma_subwavelength_2nd": 1}

    @pytest.mark.parametrize("fields", [
        dict(target="cavity", r="a"), dict(target="mirror", d_over_lambda0="x"),
        dict(target="lindblad", n_traj=1.5)])
    def test_bad_config_opens_no_file(self, tmp_path, fields):
        # each once passed validate and left a preamble-only CSV
        out = tmp_path / "bad.csv"
        with pytest.raises(errors.ConfigError):
            sweeps.run_sweep(sweeps.SweepConfig(**fields, out=str(out)))
        assert not out.exists()

    def test_output_path_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(sweeps.OUTDIR_ENV, str(tmp_path))
        cfg = sweeps.SweepConfig(target="cavity", r=0.5, k0d=1.0)
        assert sweeps.output_path(cfg) == str(tmp_path / "cavity.csv")
        assert sweeps.run_sweep(cfg) == 0
        assert os.path.exists(tmp_path / "cavity.csv")


# One config per target; the cavity grid holds DegenerateMirror rows at
# r = -1 and 1 and NonConvergence rows: at k0d = 2e6 the default budget
# refuses every other r, r = 0 included, before any evaluation.
BLOCKED_RUNS = {
    "mirror": dict(target="mirror", method="all", r=-1.0,
                   d_over_lambda0=sweeps.Range(0.0, 2.0, 15)),
    "cavity": dict(target="cavity", method="all",
                   r=sweeps.Range(-1.0, 1.0, 17), k0d=2e6),
    "subwavelength": dict(target="subwavelength",
                          r=sweeps.Range(-0.99, 0.99, 17), k0d=0.05),
    "optical": dict(target="optical", r=0.8,
                    k0d=sweeps.Range(20.0 * math.pi, 24.0 * math.pi, 9)),
    "lindblad": dict(target="lindblad", t=sweeps.Range(0.0, 3.0, 31),
                     n_traj=300, seed=7),
}
DEFAULT_BLOCKS = (sweeps._BLOCK_ROWS, dynamics._TRAJ_BLOCK)


@pytest.mark.parametrize("target", BLOCKED_RUNS)
def test_csv_bytes_do_not_depend_on_the_block_sizes(tmp_path, monkeypatch,
                                                     target):
    runs = []
    for rows, trajectories in ((1, 1), (7, 7), DEFAULT_BLOCKS):
        monkeypatch.setattr(sweeps, "_BLOCK_ROWS", rows)
        monkeypatch.setattr(dynamics, "_TRAJ_BLOCK", trajectories)
        out = tmp_path / f"{rows}.csv"
        code = sweeps.run_sweep(sweeps.SweepConfig(**BLOCKED_RUNS[target],
                                                   out=str(out)))
        runs.append((code, out.read_text(encoding="utf-8").replace(
            str(out), "OUT")))
    assert runs[0] == runs[1] == runs[2]
    if target == "cavity":
        statuses = {row[-2] for row in read_csv(str(out))[2]}
        assert statuses == {"DegenerateMirror", "NonConvergence"}


def test_rate_sweep_memory_does_not_grow_with_the_grid(tmp_path):
    cfg = sweeps.SweepConfig(
        target="mirror", method="closed", r=-1.0,
        d_over_lambda0=sweeps.Range(0.0, 5.0, 200_000),
        out=str(tmp_path / "long.csv"))
    tracemalloc.start()
    try:
        assert sweeps.run_sweep(cfg) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # whole columns of Python floats and strings once took 59 MiB here
    assert peak < 8 << 20


class TestLindbladSweep:
    def test_csv_schema_and_content(self, tmp_path):
        out = str(tmp_path / "l.csv")
        cfg = sweeps.SweepConfig(target="lindblad", t=sweeps.Range(0.0, 2.0, 9),
                                 n_traj=150, out=out)
        assert sweeps.run_sweep(cfg) == 0
        _, header, rows = read_csv(out)
        assert header == LINDBLAD_HEADER
        assert len(rows) == 9
        first = dict(zip(header.split(","), rows[0]))
        assert float(first["t"]) == 0.0
        assert float(first["pop_jc"]) == pytest.approx(1.0, abs=1e-12)
        assert float(first["pop_single_rate"]) == pytest.approx(1.0, abs=1e-12)
        assert first["method"] == "lindblad"
        assert first["status"] == "ok"
        pops = np.array([float(r[1]) for r in rows])
        assert np.all(np.diff(pops) < 0.0)

    def test_deterministic_bytes(self, tmp_path):
        outs = []
        for name in ("x.csv", "y.csv"):
            out = str(tmp_path / name)
            cfg = sweeps.SweepConfig(target="lindblad",
                                     t=sweeps.Range(0.0, 2.0, 6), n_traj=120,
                                     out=out)
            assert sweeps.run_sweep(cfg) == 0
            outs.append(out)
        a = open(outs[0], "rb").read().replace(b"x.csv", b"z.csv")
        b = open(outs[1], "rb").read().replace(b"y.csv", b"z.csv")
        assert a == b


class TestFigures:
    def test_all_figures(self, tmp_path):
        for fig in sweeps.FIGURE_IDS:
            outdir = str(tmp_path / fig)
            assert sweeps.reproduce_figure(fig, outdir=outdir) == 0
            names = sorted(os.listdir(outdir))
            assert "manifest.txt" in names
            curves = [n for n in names if n.endswith(".csv")]
            assert len(curves) >= 3
            for name in curves:
                assert name.startswith(fig)
                _, header, rows = read_csv(os.path.join(outdir, name))
                assert_no_ok_row_is_negative(header, rows)

    def test_mirror_plasmonic_contact_intercepts(self, tmp_path):
        outdir = str(tmp_path / "fig")
        assert sweeps.reproduce_figure("mirror_plasmonic", outdir=outdir) == 0
        for name in sorted(os.listdir(outdir)):
            if not name.endswith(".csv"):
                continue
            _, header, rows = read_csv(os.path.join(outdir, name))
            cols = header.split(",")
            first = dict(zip(cols, rows[0]))
            re_r = float(first["re_r"])
            assert float(first["d_over_lambda0"]) == 0.0
            assert float(first["ratio_closed"]) == pytest.approx(1.0 + re_r,
                                                                 abs=1e-14)

    def test_subwavelength_suppression_curve_shape(self, tmp_path):
        outdir = str(tmp_path / "fig")
        assert sweeps.reproduce_figure("subwl_dielectric_vs_r",
                                       outdir=outdir) == 0
        name = [n for n in os.listdir(outdir) if "k0d0.001" in n][0]
        _, header, rows = read_csv(os.path.join(outdir, name))
        cols = header.split(",")
        idx = cols.index("ratio_limit_2nd")
        vals = [float(r[idx]) for r in rows]
        rs = [float(r[cols.index("r_mir")]) for r in rows]
        assert rs[0] == -1.0
        assert vals[0] == 0.0
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(v < 1.0 for v in vals[:-1])

    def test_enhancement_decays_with_spacing(self, tmp_path):
        outdir = str(tmp_path / "fig")
        assert sweeps.reproduce_figure("subwl_plasmonic_vs_d",
                                       outdir=outdir) == 0
        for name in os.listdir(outdir):
            if not name.endswith(".csv"):
                continue
            _, header, rows = read_csv(os.path.join(outdir, name))
            cols = header.split(",")
            idx = cols.index("ratio_limit_2nd")
            assert float(rows[0][idx]) > float(rows[-1][idx]) > 1.0

    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(errors.ConfigError):
            sweeps.reproduce_figure("no_such_figure", outdir=str(tmp_path))
