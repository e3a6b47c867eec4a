"""Panel loading, validation, normalization, grouping and pair construction."""

import csv
import io
import math
import os
import re
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from conftest import load_panel_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from distdyn import panel as panel_module
from distdyn import DistDynError, MalformedRow, dump_panel, load_panel, prepare_panel
from distdyn.errors import (
    DuplicateKey,
    EmptySelection,
    EmptyYear,
    MissingBaseYear,
    MissingCpi,
    NonPositiveIncome,
    NoPairs,
)
from distdyn.panel import (
    _BLOCK,
    _HEADER,
    REGIONS,
    SECTORS,
    Panel,
    TransitionPairs,
    build_transition_pairs,
    deflate,
    filter_group,
    group_shares,
    poorest_fraction,
    to_relative,
)

HEADER = "unit_id,sector,region,year,income\n"
HEADER_CPI = "unit_id,sector,region,year,income,cpi\n"


def csv_panel(rows, cpi=False):
    head = HEADER_CPI if cpi else HEADER
    return load_panel((head + "".join(r + "\n" for r in rows)).encode())


def random_rows(rng, n_units=6, years=(1999, 2000, 2001), regions=("east", "west")):
    rows = []
    for u in range(n_units):
        sector = "urban" if u % 2 == 0 else "rural"
        region = regions[u % len(regions)]
        for year in years:
            income = float(rng.uniform(0.2, 9.0))
            rows.append(f"h{u},{sector},{region},{year},{income!r}")
    return rows


class TestLoadPanel:
    def test_parses_fields(self):
        p = csv_panel(
            [
                "a1,urban,east,1999,123.5",
                "a2,rural,west,2000,88",
            ]
        )
        assert len(p) == 2
        assert p.unit_id[0] == "a1"
        assert p.sector[0] == "urban"
        assert p.region[0] == "east"
        assert p.year[0] == 1999
        assert p.income[0] == 123.5
        assert p.cpi is None
        assert not p.is_relative

    def test_accepts_bytes_and_path(self, tmp_path):
        text = HEADER + "a1,urban,east,1999,5.0\n"
        from_bytes = load_panel(text.encode())
        path = tmp_path / "p.csv"
        path.write_text(text)
        from_path = load_panel(path)
        assert len(from_bytes) == len(from_path) == 1

    def test_path_with_comma(self, tmp_path):
        # a comma in a path must not make it look like CSV content
        path = tmp_path / "a,b" / "p.csv"
        path.parent.mkdir()
        path.write_text(HEADER + "a1,urban,east,1999,5.0\n")
        assert len(load_panel(str(path))) == len(load_panel(path)) == 1

    def test_str_is_always_a_path(self):
        with pytest.raises(FileNotFoundError):
            load_panel(HEADER + "a1,urban,east,1999,5.0\n")

    def test_reads_a_named_pipe(self, tmp_path):
        # a path that can be read only once still gets the row of its fault
        fifo = tmp_path / "panel.fifo"
        os.mkfifo(fifo)
        data = (HEADER + "a1,urban,east,1999,5.0\n\na1,urban,east,2000,-1\n").encode()
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        with pytest.raises(NonPositiveIncome, match="^row 4: "):
            load_panel(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()

    def test_reads_text_stream(self):
        p = load_panel(io.StringIO(HEADER + "a1,urban,east,1999,5.0\n"))
        assert len(p) == 1

    def test_bad_header(self):
        with pytest.raises(MalformedRow):
            load_panel(b"unit,sector,region,year,income\na,urban,east,1999,1\n")

    def test_empty_input(self):
        with pytest.raises(MalformedRow):
            load_panel(b"")

    def test_wrong_field_count_reports_row(self):
        with pytest.raises(MalformedRow) as err:
            csv_panel(["a1,urban,east,1999,1.0", "a2,urban,east,1999"])
        assert "row 3" in str(err.value)

    @pytest.mark.parametrize("unit", ["", "  "])
    def test_empty_unit_id(self, unit):
        # without the check these rows load as one unit named '' with a pair
        with pytest.raises(MalformedRow, match="row 2: empty unit_id"):
            csv_panel([f"{unit},urban,east,1999,1.0", f"{unit},urban,east,2000,2.0"])

    def test_non_numeric_income(self):
        with pytest.raises(MalformedRow):
            csv_panel(["a1,urban,east,1999,abc"])

    def test_non_integer_year(self):
        with pytest.raises(MalformedRow):
            csv_panel(["a1,urban,east,19.5,1.0"])

    def test_unknown_sector(self):
        with pytest.raises(MalformedRow):
            csv_panel(["a1,suburban,east,1999,1.0"])

    def test_unknown_region(self):
        with pytest.raises(MalformedRow):
            csv_panel(["a1,urban,north,1999,1.0"])

    def test_zero_income(self):
        with pytest.raises(NonPositiveIncome):
            csv_panel(["a1,urban,east,1999,0"])

    def test_negative_income(self):
        with pytest.raises(NonPositiveIncome):
            csv_panel(["a1,urban,east,1999,-4.5"])

    def test_duplicate_unit_year(self):
        with pytest.raises(DuplicateKey):
            csv_panel(
                ["a1,urban,east,1999,1.0", "a1,urban,east,1999,2.0"]
            )

    def test_same_year_different_sector_not_duplicate(self):
        p = csv_panel(
            ["a1,urban,east,1999,1.0", "a1,rural,east,1999,2.0"]
        )
        assert len(p) == 2
        assert len(p.units()) == 2

    def test_cpi_column_parsed(self):
        p = csv_panel(["a1,urban,east,1999,100,95.5"], cpi=True)
        assert p.cpi is not None
        assert p.cpi[0] == 95.5

    def test_cpi_must_be_positive(self):
        with pytest.raises(MalformedRow):
            csv_panel(["a1,urban,east,1999,100,0"], cpi=True)

    def test_all_blank_cpi_column_collapses(self):
        # a cpi header with no values behaves like a panel without cpi
        p = csv_panel(["a1,urban,east,1999,100,"], cpi=True)
        assert p.cpi is None

    def test_partially_blank_cpi_kept_as_nan(self):
        p = csv_panel(
            ["a1,urban,east,1999,100,95", "a2,urban,east,1999,100,"], cpi=True
        )
        assert p.cpi[0] == 95.0
        assert np.isnan(p.cpi[1])


class TestDumpPanel:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(2)
        p = csv_panel(random_rows(rng))
        again = load_panel(dump_panel(p))
        assert np.array_equal(p.unit_id, again.unit_id)
        assert np.array_equal(p.sector, again.sector)
        assert np.array_equal(p.region, again.region)
        assert np.array_equal(p.year, again.year)
        assert np.array_equal(p.income, again.income)

    def test_uses_lf_endings(self):
        rng = np.random.default_rng(3)
        raw = dump_panel(csv_panel(random_rows(rng)))
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_cpi_round_trip(self):
        p = csv_panel(["a1,urban,east,1999,100,95.5"], cpi=True)
        again = load_panel(dump_panel(p))
        assert again.cpi[0] == 95.5

    @pytest.mark.parametrize("n", [1, _BLOCK + 1])
    @pytest.mark.parametrize("cpi", [False, True])
    def test_ids_that_need_quotes_load_back(self, n, cpi):
        ids = ["a,b", 'q"x', "l\nm", "c\rd", '"', "plain"]
        rng = np.random.default_rng(n)
        p = Panel(
            unit_id=np.array([ids[i % len(ids)] for i in range(n)], dtype=object),
            sector=np.array(["urban", "rural"] * n, dtype=object)[:n],
            region=np.array(["west"] * n, dtype=object),
            year=2000 + np.arange(n) // len(ids),
            income=rng.lognormal(0.0, 1.0, n),
            cpi=np.where(np.arange(n) % 3 == 1, np.nan, rng.uniform(1, 200, n)) if cpi else None,
        )
        raw = dump_panel(p)
        assert raw.startswith(b'unit_id,sector,region,year,income' + (b",cpi" if cpi else b"")
                              + b'\n"a,b",urban,west,2000,')
        again = load_panel(raw)
        for name in ("unit_id", "sector", "region", "year", "income"):
            assert getattr(again, name).tolist() == getattr(p, name).tolist()
        if cpi:
            assert np.array_equal(again.cpi, p.cpi, equal_nan=True)
        else:
            assert again.cpi is None
        assert dump_panel(again) == raw

    @pytest.mark.parametrize("bad", [" a", "a ", "", "\ta", "a\n", "\r\n", "\u00a0a"])
    def test_refuses_ids_that_would_not_load_back(self, bad):
        p = Panel(
            unit_id=np.array(["a", bad, "b"], dtype=object),
            sector=np.array(["urban"] * 3, dtype=object),
            region=np.array(["east"] * 3, dtype=object),
            year=np.array([2000, 2000, 2000]),
            income=np.array([1.0, 2.0, 3.0]),
        )
        with pytest.raises(ValueError, match=re.escape(f"unit_id {bad!r} would not load back")):
            dump_panel(p)

    def test_names_the_first_refused_id(self):
        ids = ["x", "b ", " a", "b "]
        p = Panel(
            unit_id=np.array(ids, dtype=object),
            sector=np.array(["urban"] * 4, dtype=object),
            region=np.array(["east"] * 4, dtype=object),
            year=np.array([2000, 2000, 2000, 2001]),
            income=np.ones(4),
        )
        with pytest.raises(ValueError, match=re.escape("unit_id 'b ' would not")):
            dump_panel(p)


# ids that load_panel reads back unchanged: no whitespace at either end, but
# commas, quotes, line breaks, tabs and blanks inside
_ROUND_TRIP_IDS = st.lists(
    st.text(alphabet='ab\u00fc,"\r\n\t #', min_size=1, max_size=5).filter(
        lambda u: u == u.strip()),
    min_size=1, max_size=6, unique=True)


class TestDumpPanelRoundTrip:
    @given(ids=_ROUND_TRIP_IDS, cpi=st.booleans(), seed=st.integers(0, 2**32 - 1),
           n=st.sampled_from([1, 2, 13, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]),
           blank=st.sampled_from([0.0, 0.3, 1.0]))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_load_of_dump_is_the_panel(self, ids, cpi, seed, n, blank):
        # row i is unit ids[i % k] in sector (i // k) % 2 and year 2000 + i // 2k,
        # so no key repeats, and each (unit_id, sector) keeps one region; a
        # share ``blank`` of the cpi cells has no value
        k = len(ids)
        i = np.arange(n)
        rng = np.random.default_rng(seed)
        cpi = np.where(rng.random(n) < blank, np.nan, rng.uniform(1, 200, n)) if cpi else None
        p = Panel(
            unit_id=np.array(ids, dtype=object)[i % k],
            sector=np.array(SECTORS, dtype=object)[(i // k) % 2],
            region=np.array(REGIONS, dtype=object)[(i % k + (i // k) % 2) % len(REGIONS)],
            year=2000 + i // (2 * k),
            income=rng.lognormal(0.0, 2.0, n),
            cpi=cpi,
        )
        if cpi is not None and np.all(np.isnan(cpi)):
            assert p.cpi is None  # a cpi column with no value is no cpi column
        assert_same_panel(load_panel(dump_panel(p)), p)


class TestDeflate:
    def test_rescales_by_cpi(self):
        p = csv_panel(
            ["a1,urban,east,1999,1100,110", "a2,urban,east,1999,500,100"],
            cpi=True,
        )
        real = deflate(p)
        assert real.income[0] == pytest.approx(1000.0, rel=1e-15)
        assert real.income[1] == 500.0
        assert real.cpi is None

    def test_requires_cpi(self):
        p = csv_panel(["a1,urban,east,1999,100"])
        with pytest.raises(MissingCpi):
            deflate(p)

    def test_rejects_missing_cells(self):
        p = csv_panel(
            ["a1,urban,east,1999,100,95", "a2,urban,east,1999,100,"],
            cpi=True,
        )
        with pytest.raises(MissingCpi):
            deflate(p)

    def test_cpi_without_values_is_no_cpi(self):
        # in memory as after a dump and a load: nothing to deflate
        p = Panel(
            unit_id=np.array(["a1", "a2"], dtype=object),
            sector=np.array(["urban"] * 2, dtype=object),
            region=np.array(["east"] * 2, dtype=object),
            year=np.array([1999, 2000]),
            income=np.array([100.0, 120.0]),
            cpi=np.full(2, np.nan),
        )
        assert p.cpi is None
        assert load_panel(dump_panel(p)).cpi is None
        assert dump_panel(p) == dump_panel(load_panel(dump_panel(p)))
        assert prepare_panel(p).income.tolist() == [1.0, 1.0]


class TestToRelative:
    def test_divides_by_year_mean(self):
        p = csv_panel(
            [
                "a1,urban,east,1999,2",
                "a2,urban,east,1999,4",
                "a3,urban,east,1999,6",
            ]
        )
        rel = to_relative(p)
        assert rel.is_relative
        assert np.allclose(rel.income, [0.5, 1.0, 1.5], atol=1e-15)

    def test_each_year_normalized_separately(self):
        rng = np.random.default_rng(5)
        p = csv_panel(random_rows(rng, n_units=9, years=(1999, 2005, 2011)))
        rel = to_relative(p)
        for year in rel.years():
            mean = rel.income[rel.year == year].mean()
            assert mean == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        rows = random_rows(rng)
        p = csv_panel(rows)
        scaled = Panel(
            unit_id=p.unit_id,
            sector=p.sector,
            region=p.region,
            year=p.year,
            income=p.income * 1234.5,
            cpi=None,
            is_relative=False,
        )
        a = to_relative(p)
        b = to_relative(scaled)
        assert np.allclose(a.income, b.income, rtol=1e-12)

    def test_per_sector_scope(self):
        p = csv_panel(
            [
                "a1,urban,east,1999,10",
                "a2,urban,east,1999,30",
                "b1,rural,east,1999,1",
                "b2,rural,east,1999,3",
            ]
        )
        rel = to_relative(p, scope="per_sector")
        assert np.allclose(rel.income, [0.5, 1.5, 0.5, 1.5], atol=1e-15)

    def test_pooled_scope_mixes_sectors(self):
        p = csv_panel(
            [
                "a1,urban,east,1999,10",
                "b1,rural,east,1999,30",
            ]
        )
        rel = to_relative(p, scope="pooled")
        assert np.allclose(rel.income, [0.5, 1.5], atol=1e-15)

    def test_rejects_double_normalization(self):
        p = csv_panel(["a1,urban,east,1999,2", "a2,urban,east,1999,4"])
        rel = to_relative(p)
        with pytest.raises(ValueError):
            to_relative(rel)

    def test_empty_panel(self):
        p = load_panel(HEADER.encode())
        with pytest.raises(EmptyYear):
            to_relative(p)

    @pytest.mark.parametrize(
        "scope, income, cell",
        [
            ("pooled", [-1.0, -2.0, -3.0, -4.0], r"\(2001,\)"),
            ("per_sector", [-1.0, 2.0, 3.0, -4.0], r"\(2001, 'urban'\)"),
        ],
    )
    def test_non_positive_mean_names_first_appearing_cell(self, scope, income, cell):
        # only a panel built in code can hold such incomes; load_panel rejects them
        p = Panel(
            unit_id=np.array(["a", "b", "a", "b"], dtype=object),
            sector=np.array(["urban", "rural", "urban", "rural"], dtype=object),
            region=np.array(["east"] * 4, dtype=object),
            year=np.array([2001, 2000, 2000, 2001]),
            income=np.array(income),
        )
        with pytest.raises(EmptyYear, match=f"scope {cell}$"):
            to_relative(p, scope=scope)

    def test_bad_scope(self):
        p = csv_panel(["a1,urban,east,1999,2"])
        with pytest.raises(ValueError):
            to_relative(p, scope="by_village")


class TestFilterGroup:
    def _panel(self):
        return csv_panel(
            [
                "a1,urban,east,1999,1",
                "a2,urban,west,1999,2",
                "b1,rural,east,1999,3",
                "b2,rural,west,1999,4",
            ]
        )

    def test_by_sector(self):
        sub = filter_group(self._panel(), sector="rural")
        assert len(sub) == 2
        assert set(sub.sector) == {"rural"}

    def test_by_region(self):
        sub = filter_group(self._panel(), region="west")
        assert len(sub) == 2
        assert set(sub.region) == {"west"}

    def test_intersection(self):
        sub = filter_group(self._panel(), sector="urban", region="east")
        assert len(sub) == 1
        assert sub.unit_id[0] == "a1"

    def test_empty_selection(self):
        p = csv_panel(["a1,urban,east,1999,1"])
        with pytest.raises(EmptySelection):
            filter_group(p, sector="rural")

    def test_unknown_sector(self):
        with pytest.raises(ValueError):
            filter_group(self._panel(), sector="peri_urban")


class TestPoorestFraction:
    def _panel(self):
        rows = []
        for u, inc in enumerate([9.0, 1.0, 5.0, 3.0, 7.0, 2.0]):
            for year in (1999, 2000):
                rows.append(f"h{u},rural,east,{year},{inc + 0.1 * (year - 1999)!r}")
        return csv_panel(rows)

    def test_keeps_ceil_fraction_lowest(self):
        # 6 units, fraction 1/3 -> 2 units: incomes 1.0 (h1) and 2.0 (h5)
        sub = poorest_fraction(self._panel(), base_year=1999, fraction=1 / 3)
        assert sorted(set(sub.unit_id)) == ["h1", "h5"]
        assert sorted(set(sub.year)) == [1999, 2000]

    def test_ceil_rounds_up(self):
        # fraction 0.4 of 6 units -> ceil(2.4) = 3 units
        sub = poorest_fraction(self._panel(), base_year=1999, fraction=0.4)
        assert len(set(sub.unit_id)) == 3

    def test_fraction_one_keeps_everything(self):
        p = self._panel()
        sub = poorest_fraction(p, base_year=1999, fraction=1.0)
        assert len(sub) == len(p)

    def test_ties_broken_by_unit_id(self):
        rows = [
            "b,rural,east,1999,5",
            "a,rural,east,1999,5",
            "c,rural,east,1999,5",
        ]
        sub = poorest_fraction(csv_panel(rows), base_year=1999, fraction=1 / 3)
        assert set(sub.unit_id) == {"a"}

    def test_sectors_ranked_independently(self):
        rows = [
            "u1,urban,east,1999,100",
            "u2,urban,east,1999,200",
            "r1,rural,east,1999,1",
            "r2,rural,east,1999,2",
        ]
        sub = poorest_fraction(csv_panel(rows), base_year=1999, fraction=0.5)
        # one from each sector, not the two globally poorest
        assert sorted(set(sub.unit_id)) == ["r1", "u1"]

    def test_units_missing_base_year_dropped(self):
        rows = [
            "h0,rural,east,1999,1",
            "h0,rural,east,2000,1",
            "h9,rural,east,2000,0.1",
        ]
        sub = poorest_fraction(csv_panel(rows), base_year=1999, fraction=1.0)
        assert set(sub.unit_id) == {"h0"}

    def test_missing_base_year(self):
        with pytest.raises(MissingBaseYear):
            poorest_fraction(self._panel(), base_year=1492, fraction=0.5)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            poorest_fraction(self._panel(), base_year=1999, fraction=0.0)

    @given(frac=st.floats(0.05, 1.0), n=st.integers(1, 12))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_count_matches_ceiling(self, frac, n):
        rows = [f"h{u:02d},rural,east,1999,{float(u + 1)!r}" for u in range(n)]
        sub = poorest_fraction(csv_panel(rows), base_year=1999, fraction=frac)
        assert len(set(sub.unit_id)) == math.ceil(frac * n)


class TestTransitionPairs:
    def _relative(self, rows):
        return to_relative(csv_panel(rows))

    def test_consecutive_years(self):
        rel = self._relative(
            [
                "a,urban,east,1999,2",
                "a,urban,east,2000,4",
                "a,urban,east,2001,8",
                "b,urban,east,1999,2",
                "b,urban,east,2000,4",
                "b,urban,east,2001,8",
            ]
        )
        pairs = build_transition_pairs(rel, tau=1)
        assert len(pairs) == 4
        # both units have identical relative income 1.0 everywhere
        assert np.allclose(pairs.x, 1.0) and np.allclose(pairs.y, 1.0)

    def test_pair_values_match_series(self):
        rel = self._relative(
            [
                "a,urban,east,1999,1",
                "a,urban,east,2000,2",
                "b,urban,east,1999,3",
                "b,urban,east,2000,2",
            ]
        )
        pairs = build_transition_pairs(rel, tau=1)
        got = sorted(zip(pairs.x, pairs.y))
        assert got[0] == (pytest.approx(0.5), pytest.approx(1.0))
        assert got[1] == (pytest.approx(1.5), pytest.approx(1.0))

    def test_longer_horizon(self):
        rows = [f"a,urban,east,{y},{float(y - 1998)!r}" for y in range(1999, 2014)]
        rows += [f"b,urban,east,{y},1.0" for y in range(1999, 2014)]
        rel = self._relative(rows)
        assert len(build_transition_pairs(rel, tau=1)) == 28
        assert len(build_transition_pairs(rel, tau=14)) == 2
        with pytest.raises(NoPairs):
            build_transition_pairs(rel, tau=15)

    def test_gap_years_skip_pairs(self):
        rel = self._relative(
            [
                "a,urban,east,1999,1",
                "a,urban,east,2001,2",
                "b,urban,east,1999,1",
                "b,urban,east,2001,2",
            ]
        )
        with pytest.raises(NoPairs):
            build_transition_pairs(rel, tau=1)
        assert len(build_transition_pairs(rel, tau=2)) == 2

    def test_key_overflow_is_refused(self):
        # three pairs, but 4 units x (span + tau) does not fit in 64 bits
        b = 2**62
        seen = [("a", 0), ("a", 1), ("b", 0), ("b", 1), ("c", b), ("c", b + 1), ("d", b)]
        rel = self._relative([f"{u},urban,east,{y},1" for u, y in seen])
        with pytest.raises(NoPairs, match=f"span of {b + 2} years for 4 units"):
            build_transition_pairs(rel, tau=1)

    def test_key_overflow_counts_the_groups_own_units(self):
        # the west group's units carry codes 5 and 6 of the parent panel
        b = 2**62
        rows = [f"{u},urban,east,{y},1" for u in "abcde" for y in (0, 1)]
        rows += [f"f,urban,west,{y},1" for y in (0, 1)]
        rows += [f"g,urban,west,{y},1" for y in (b, b + 1)]
        west = filter_group(self._relative(rows), region="west")
        assert west._unit_code.tolist() == [5, 5, 6, 6]
        with pytest.raises(NoPairs, match=f"span of {b + 2} years for 2 units"):
            build_transition_pairs(west, tau=1)
        near = filter_group(self._relative(rows[:-2] + ["g,urban,west,0,1"]), region="west")
        assert len(build_transition_pairs(near, tau=1)) == 1

    def test_span_is_exact_across_the_int64_range(self):
        b = 2**62
        seen = [("a", -b), ("a", -b + 1), ("b", b), ("b", b + 1)]
        rel = self._relative([f"{u},urban,east,{y},1" for u, y in seen])
        with pytest.raises(NoPairs, match=f"span of {2 * b + 2} years for 2 units"):
            build_transition_pairs(rel, tau=1)

    def test_key_at_the_limit_keeps_its_pairs(self):
        # 2 units x (span + tau) = 2^63 - 2 is the largest even product that fits
        last = 2**62 - 3
        rows = [f"a,urban,east,{y},1" for y in (0, 1)]
        rows += [f"b,urban,east,{y},1" for y in (last - 1, last)]
        assert len(build_transition_pairs(self._relative(rows), tau=1)) == 2
        rows[2:] = [f"b,urban,east,{y},1" for y in (last, last + 1)]
        with pytest.raises(NoPairs, match="exceed 64 bits"):
            build_transition_pairs(self._relative(rows), tau=1)

    def test_requires_relative_incomes(self):
        p = csv_panel(["a,urban,east,1999,1", "a,urban,east,2000,2"])
        with pytest.raises(ValueError):
            build_transition_pairs(p, tau=1)

    def test_bad_tau(self):
        rel = self._relative(["a,urban,east,1999,1", "a,urban,east,2000,2"])
        with pytest.raises(ValueError):
            build_transition_pairs(rel, tau=0)

    @given(
        n_units=st.integers(2, 6),
        seed=st.integers(0, 10_000),
        tau=st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_count_matches_enumeration(self, n_units, seed, tau):
        rng = np.random.default_rng(seed)
        rows = []
        series = {}
        for u in range(n_units):
            present = [y for y in range(1999, 2005) if rng.random() < 0.7]
            series[u] = set(present)
            for y in present:
                rows.append(f"h{u},rural,east,{y},{float(rng.uniform(1, 5))!r}")
        years_present = {y for s in series.values() for y in s}
        if not years_present:
            return
        expected = sum(
            1 for s in series.values() for t in s if t + tau in s
        )
        rel = to_relative(csv_panel(rows))
        if expected == 0:
            with pytest.raises(NoPairs):
                build_transition_pairs(rel, tau=tau)
        else:
            assert len(build_transition_pairs(rel, tau=tau)) == expected


class TestGroupShares:
    def test_single_region(self):
        p = csv_panel([f"h{u},rural,east,1999,{u + 1}.0" for u in range(10)])
        assert group_shares(p) == {"east": 1.0}

    def test_counts_units_not_observations(self):
        p = csv_panel(
            [
                "a,urban,east,1999,1",
                "a,urban,east,2000,1",
                "a,urban,east,2001,1",
                "b,urban,west,1999,1",
            ]
        )
        shares = group_shares(p)
        assert shares == {"east": 0.5, "west": 0.5}

    def test_region_order_is_canonical(self):
        p = csv_panel(
            [
                "a,urban,west,1999,1",
                "b,urban,east,1999,1",
                "c,urban,central,1999,1",
            ]
        )
        assert list(group_shares(p)) == ["east", "central", "west"]

    def test_shares_sum_to_one(self):
        rng = np.random.default_rng(9)
        p = csv_panel(random_rows(rng, n_units=11, regions=("east", "central", "west", "other")))
        assert sum(group_shares(p).values()) == pytest.approx(1.0, abs=1e-12)

    def test_empty_panel(self):
        p = load_panel(HEADER.encode())
        with pytest.raises(EmptySelection):
            group_shares(p)


class TestLoadPanelRegion:
    def test_region_change_within_unit_rejected(self):
        rows = ["u0,urban,east,1999,1", "u0,urban,east,2000,2", "u0,urban,west,2001,3"]
        rows += [f"u{u},urban,east,{y},1" for u in range(1, 6) for y in (1999, 2000, 2001)]
        with pytest.raises(MalformedRow, match=r"row 4: .*'u0'.*'west'.*'east'"):
            csv_panel(rows)

    def test_same_id_in_other_sector_may_differ(self):
        p = csv_panel(["u0,urban,east,1999,1", "u0,rural,west,1999,1"])
        assert group_shares(p) == {"east": 0.5, "west": 0.5}


# Reference implementations: per-unit dict groupings, one Python pass each.
# The panel functions must match them bit for bit.


def _ref_units(panel):
    seen = {}
    for u, s in zip(panel.unit_id, panel.sector):
        seen.setdefault((u, s), None)
    return list(seen)


def _ref_to_relative(panel, scope):
    income = panel.income.copy()
    if scope == "pooled":
        keys = [(int(y),) for y in panel.year]
    else:
        keys = [(int(y), s) for y, s in zip(panel.year, panel.sector)]
    groups = {}
    for i, k in enumerate(keys):
        groups.setdefault(k, []).append(i)
    for idx in groups.values():
        income[idx] = panel.income[idx] / float(np.mean(panel.income[idx]))
    return income


def _ref_pairs(panel, tau):
    by_unit = {}
    for i in range(len(panel)):
        key = (panel.unit_id[i], panel.sector[i])
        by_unit.setdefault(key, {})[int(panel.year[i])] = float(panel.income[i])
    xs, ys = [], []
    for series in by_unit.values():
        for t in sorted(series):
            if t + tau in series:
                xs.append(series[t])
                ys.append(series[t + tau])
    return np.array(xs), np.array(ys)


def _ref_poorest_mask(panel, base_year, fraction):
    keep = set()
    for sec in ("urban", "rural"):
        mask = (panel.sector == sec) & (panel.year == base_year)
        ranked = sorted(zip(panel.income[mask], panel.unit_id[mask]))
        keep.update((uid, sec) for _, uid in ranked[: math.ceil(fraction * len(ranked))])
    return np.array([(u, s) in keep for u, s in zip(panel.unit_id, panel.sector)], dtype=bool)


def _ref_group_shares(panel):
    region_of = {}
    for i in range(len(panel)):
        region_of.setdefault((panel.unit_id[i], panel.sector[i]), str(panel.region[i]))
    counts = {}
    for r in region_of.values():
        counts[r] = counts.get(r, 0) + 1
    return {r: counts[r] / len(region_of) for r in ("east", "central", "west", "other") if r in counts}


def shuffled_panel(seed, first_year):
    """Unbalanced panel with year gaps, rows shuffled, so units first appear late.

    Some unit ids occur in both sectors; incomes repeat so ranks tie.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for u in range(int(rng.integers(3, 40))):
        for sector in ("urban", "rural"):
            if rng.random() < 0.4:
                continue
            region = ("east", "central", "west", "other")[int(rng.integers(4))]
            years = np.flatnonzero(rng.random(12) < rng.uniform(0.2, 1.0)) + first_year
            for y in years:
                income = float(rng.choice([1.0, 2.5, rng.uniform(0.1, 50.0)]))
                rows.append(f"h{u},{sector},{region},{y},{income!r}")
    rng.shuffle(rows)
    return csv_panel(rows)


class TestUnitIndexMatchesReference:
    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("first_year", [1990, -3, 2_000_000_000])
    def test_bytes_equal(self, seed, first_year):
        p = shuffled_panel(seed, first_year)
        assert p.units() == _ref_units(p)
        assert group_shares(p) == _ref_group_shares(p)
        for scope in ("pooled", "per_sector"):
            rel = to_relative(p, scope=scope)
            assert rel.income.tobytes() == _ref_to_relative(p, scope).tobytes()
            for tau in (1, 2, 5):
                x, y = _ref_pairs(rel, tau)
                if not len(x):
                    with pytest.raises(NoPairs):
                        build_transition_pairs(rel, tau=tau)
                    continue
                pairs = build_transition_pairs(rel, tau=tau)
                assert pairs.x.tobytes() == x.tobytes()
                assert pairs.y.tobytes() == y.tobytes()
        base_year = int(p.year[len(p) // 2])
        for fraction in (0.1, 0.5, 1.0):
            want = _ref_poorest_mask(p, base_year, fraction)
            sub = poorest_fraction(p, base_year, fraction)
            assert list(sub.unit_id) == list(p.unit_id[want])
            assert sub.year.tobytes() == p.year[want].tobytes()
            assert sub.income.tobytes() == p.income[want].tobytes()

    def test_empty_relative_panel_has_no_pairs(self):
        rel = to_relative(csv_panel(["a,urban,east,1999,1", "a,urban,east,2000,2"]))
        empty = rel._take(np.zeros(len(rel), dtype=bool))
        with pytest.raises(NoPairs, match="spans 1 year"):
            build_transition_pairs(empty, tau=1)
        assert empty.units() == []


# The columnar loader against the row loop it replaced (conftest.load_panel_rows).


def expected_load(data: bytes):
    """What ``load_panel(data)`` must give: the oracle's panel or error, with three fixes.

    Input that is not UTF-8 is a MalformedRow naming its first bad byte,
    whatever else is wrong with it. A year that ``int()`` reads but 64 bits
    do not hold is a MalformedRow at its row, unless an earlier row fails;
    the oracle, which reads on, raises a later row's error or OverflowError.
    One leading byte-order mark is skipped; the oracle reads it as part of
    the header.
    """
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        return MalformedRow(f"byte {e.start}: input is not UTF-8 ({e.reason})")
    try:
        return load_panel_rows(io.StringIO(text, newline=""))
    except (DistDynError, OverflowError) as e:
        error = e
    huge = _first_huge_year(text)
    if huge is not None:
        row = re.match(r"row (\d+):", str(error))
        if row is None or int(row[1]) >= huge[0]:
            return MalformedRow(f"row {huge[0]}: year {huge[1]!r} is not an integer")
    return error


def _first_huge_year(text):
    """(row, token) of the first row that passes the checks before a year beyond int64."""
    rows = enumerate(csv.reader(io.StringIO(text, newline="")), start=1)
    ncols = len(next(rows, (0, []))[1])
    for number, row in rows:
        if not row or len(row) != ncols or not row[0].strip():
            continue
        if row[1].strip() not in SECTORS or row[2].strip() not in REGIONS:
            continue
        try:
            year = int(row[3])
        except ValueError:
            continue
        if not -(2**63) <= year < 2**63:
            return number, row[3]
    return None


def assert_same_panel(got, want):
    for name in ("unit_id", "sector", "region"):
        assert getattr(got, name).dtype == object
        assert list(getattr(got, name)) == list(getattr(want, name)), name
    for name in ("year", "income"):
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert (got.cpi is None) == (want.cpi is None)
    if got.cpi is not None:
        assert got.cpi.tobytes() == want.cpi.tobytes()
    assert not got.is_relative
    # the loader's unit code equals the one a panel built in code numbers on first use
    assert "_unit_code" in got.__dict__
    assert np.array_equal(got._unit_code, want._unit_code)


def assert_loads_like_oracle(source, data: bytes):
    want = expected_load(data)
    if isinstance(want, Exception):
        with pytest.raises(type(want)) as info:
            load_panel(source)
        assert type(info.value) is type(want)
        assert str(info.value) == str(want)
    else:
        assert_same_panel(load_panel(source), want)


def _field(value: str, quote: bool) -> str:
    return '"' + value.replace('"', '""') + '"' if quote else value


FAULTS = ("header", "unit", "sector", "region", "move", "year", "income", "cpi", "fields",
          "repeat", "blank")


@st.composite
def mutated_panel_csv(draw, kinds=FAULTS):
    """Bytes of a small panel CSV with CSV corners and, of drawn kinds at a drawn rate, faults.

    Each value comes from a list of valid spellings, odd ones included, or
    from a list of faulty ones. A "move" puts a unit in another valid
    region than on its first row, so it is a fault of its own.
    """
    faulty_kinds = draw(st.sets(st.sampled_from(kinds), max_size=3))
    odds = draw(st.sampled_from([20, 6, 1]))  # a fault in 1 of odds + 1 draws

    def pick(kind, valid, faulty):
        fault = kind in faulty_kinds and draw(st.integers(0, odds)) == 0
        return draw(st.sampled_from(faulty if fault else valid))

    has_cpi = draw(st.booleans())
    header = _HEADER + (["cpi"] if has_cpi else [])
    header = pick("header", [header], [header[:-1], header + ["x"], [" unit_id "] + header[1:], []])
    region_of, seen = {}, {}
    records = []
    for _ in range(draw(st.integers(0, 9))):
        unit = pick("unit", ["u1", "u2"] * 4 + [" u1 ", "a,b", 'q"x', "l\nm", "r\r\ns", "é"],
                    ["", "  "])
        sector = pick("sector", ["urban"] * 3 + ["rural", " urban"], ["Urban", "", "town"])
        key = (unit.strip(), sector.strip())
        region = region_of.setdefault(key, pick("region", ["east", "west", " other ", "central"],
                                                ["north", ""]))
        region = pick("region", [region], ["north", ""])  # an unknown region on a later row
        region = pick("move", [region], [r for r in REGIONS if r != region.strip()])
        k = seen[key] = seen.get(key, -1) + 1  # the unit's k-th row gets a year of its own
        year = pick("year", [str(1999 + k)] * 4 + [f" {1999 + k} ", f"{1999 + k:_}",
                                                    str(2**63 - 1 - k), str(-(2**63) + k)],
                    ["1999.0", "x", "", "99999999999999999999", "-9223372036854775809"])
        income = pick("income", ["1.5", "2", "0.25", "7e-3", "1_000", " 3 ", "１２", "1e-300"],
                      ["nan", "inf", "-inf", "1e309", "-1", "0", "-0.0", "x", ""])
        fields = [unit, sector, region, year, income]
        if has_cpi:
            fields.append(pick("cpi", ["", " ", "100", "1e2", "95.5"], ["0", "nan", "x", "-5"]))
        fields = pick("fields", [fields], [fields[:-1], fields + [""], fields[:2]])
        quote = draw(st.integers(0, 7))  # 0: quote each field; 1: none; else where needed
        needs_quotes = [any(c in f for c in ',"\r\n') for f in fields]
        records.append(",".join(_field(f, quote == 0 or (quote > 1 and q))
                                for f, q in zip(fields, needs_quotes)))
        records += pick("repeat", [[]], [[records[draw(st.integers(0, len(records) - 1))]]])
        # a blank row, or one that looks blank
        records += pick("blank", [[], [], [""]], [[" "], ["\t"], [",,"], ['""']])
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join([",".join(header)] + records) + draw(st.sampled_from([newline, ""]))
    data = text.encode("utf-8")
    if draw(st.integers(0, 11)) == 0:
        data = b"\xef\xbb\xbf" + data  # a BOM
    if draw(st.integers(0, 11)) == 0:  # a byte that is not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + data[at:]
    return data


def valid_rows(n):
    """n valid rows: unit u{i // 5}, sector rural when 3 divides i, years 2000-2004."""
    return [f"u{i // 5},{'urban' if i % 3 else 'rural'},east,{2000 + i % 5},{1 + i / 7!r}"
            for i in range(n)]


class TestLoaderMatchesRowLoop:
    @given(data=mutated_panel_csv(), block=st.sampled_from([1, 2, 3, 8192]),
           kind=st.sampled_from(["bytes", "binary stream", "text stream", "path"]))
    @settings(max_examples=250, deadline=None, derandomize=True)
    def test_mutated_csv(self, data, block, kind, tmp_path_factory):
        if kind == "text stream":
            try:
                source = io.StringIO(data.decode("utf-8"))
            except UnicodeDecodeError:
                source = io.BytesIO(data)
        elif kind == "binary stream":
            source = io.BytesIO(data)
        elif kind == "path":
            source = tmp_path_factory.getbasetemp() / "mutated.csv"
            source.write_bytes(data)
        else:
            source = data
        with mock.patch.object(panel_module, "_BLOCK", block):
            assert_loads_like_oracle(source, data)

    @given(data=mutated_panel_csv(kinds=("move",)), block=st.sampled_from([1, 2, 8192]))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_region_changes_in_files_otherwise_valid(self, data, block):
        # the only fault drawn is a unit that moves region, which only the
        # whole-column unit check sees
        with mock.patch.object(panel_module, "_BLOCK", block):
            assert_loads_like_oracle(data, data)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_one_block_and_one_more_row(self, extra):
        data = (HEADER + "".join(r + "\n" for r in valid_rows(_BLOCK + extra))).encode()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt's warning on the final, empty read stays inside
            assert_loads_like_oracle(data, data)
        assert len(load_panel(data)) == _BLOCK + extra

    def test_blank_lines_count_in_row_numbers(self):
        rows = valid_rows(_BLOCK + 3)
        rows[_BLOCK + 2] = "u9999,urban,east,2000,-1"
        text = HEADER + "\n\n" + '"u0",urban,east,1990,"1\n"\n' + "".join(r + "\n\r\n" for r in rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPositiveIncome, match=rf"^row {5 + 2 * (_BLOCK + 2)}: "):
                load_panel(text.encode())
        assert_loads_like_oracle(text.encode(), text.encode())

    @pytest.mark.parametrize("earlier", ["none", "same block", "previous block"])
    @pytest.mark.parametrize("offset", [0, 5])
    def test_ragged_row_after_a_block_boundary(self, earlier, offset):
        rows = valid_rows(_BLOCK + 10)
        rows[_BLOCK + offset] += ",extra"
        if earlier == "same block" and offset:
            rows[_BLOCK + 2] = rows[_BLOCK + 2].replace("east", "north")
        elif earlier == "previous block":
            rows[_BLOCK - 1] = rows[_BLOCK - 1].replace("urban", "town").replace("rural", "town")
        data = (HEADER + "".join(r + "\n" for r in rows)).encode()
        assert_loads_like_oracle(data, data)
        want = {
            "none": f"row {_BLOCK + offset + 2}: expected 5 fields, got 6",
            "same block": f"row {_BLOCK + (2 if offset else offset) + 2}: "
                          + ("unknown region 'north'" if offset else "expected 5 fields, got 6"),
            "previous block": f"row {_BLOCK + 1}: unknown sector 'town'",
        }[earlier]
        with pytest.raises(MalformedRow) as info:
            load_panel(data)
        assert str(info.value) == want

    def test_fault_in_the_block_before_a_short_ragged_row(self):
        rows = valid_rows(_BLOCK + 4)
        rows[_BLOCK + 1] = rows[_BLOCK + 1].rsplit(",", 1)[0] + ",zero"
        rows[_BLOCK + 3] = "u1,urban"
        data = (HEADER + "".join(r + "\n" for r in rows)).encode()
        with pytest.raises(MalformedRow, match=rf"^row {_BLOCK + 3}: income 'zero' is not a number$"):
            load_panel(data)
        assert_loads_like_oracle(data, data)

    @pytest.mark.parametrize("moved", [5, 6, 7])
    def test_repeat_and_region_change_name_the_lower_row(self, moved):
        rows = valid_rows(_BLOCK + 10)
        rows[_BLOCK + 6] = rows[3]  # row 5, (u0, rural, 2003), again as row _BLOCK + 8
        # (u0, rural) is in east; on row _BLOCK + moved + 2 it moves to west
        moving = rows[_BLOCK + 6] if moved == 6 else "u0,rural,east,1990,1"
        rows[_BLOCK + moved] = moving.replace("east", "west")
        data = (HEADER + "".join(r + "\n" for r in rows)).encode()
        assert_loads_like_oracle(data, data)
        if moved == 5:
            want = MalformedRow, (rf"^row {_BLOCK + 7}: unit \('u0', 'rural'\) in region 'west', "
                                  "but in 'east' on its earlier rows$")
        else:  # on the same row, the repeat is named
            want = DuplicateKey, (rf"^row {_BLOCK + 8}: repeated \(unit_id, sector, year\) "
                                  r"\('u0', 'rural', 2003\)$")
        with pytest.raises(want[0], match=want[1]):
            load_panel(data)


class TestLoaderCheckOrder:
    @pytest.mark.parametrize("row, error, message", [
        (",Urban,north,x,y,0", MalformedRow, "empty unit_id"),
        ("a,Urban,north,x,y,0", MalformedRow, "unknown sector 'Urban'"),
        ("a, urban ,north,x,y,0", MalformedRow, "unknown region 'north'"),
        ("a,urban,east,x,y,0", MalformedRow, "year 'x' is not an integer"),
        ("a,urban,east,1e3,y,0", MalformedRow, "year '1e3' is not an integer"),
        ("a,urban,east,1999,y,0", MalformedRow, "income 'y' is not a number"),
        ("a,urban,east,1999,-1,0", NonPositiveIncome, "income must be > 0, got -1"),
        ("a,urban,east,1999, 1 ,x", MalformedRow, "cpi 'x' is not a number"),
        ("a,urban,east,1999,1,0", MalformedRow, "cpi must be > 0, got 0"),
        ("a,urban,east,1999,1,inf", MalformedRow, "cpi must be > 0, got inf"),
        ("b,urban,east,1998,1,", DuplicateKey, "repeated (unit_id, sector, year) ('b', 'urban', 1998)"),
    ])
    def test_a_row_names_its_first_fault(self, row, error, message):
        data = (HEADER_CPI + "b,urban,west,1998,2,100\n\n" + row + "\nc,urban,east,1999,-5,0\n").encode()
        with pytest.raises(error) as info:
            load_panel(data)
        assert str(info.value) == f"row 4: {message}"
        assert_loads_like_oracle(data, data)


class TestLoaderFixes:
    def test_year_beyond_int64(self):
        with pytest.raises(MalformedRow, match=r"^row 3: year '99999999999999999999' is not an integer$"):
            csv_panel(["a,urban,east,1999,1", "a,urban,east,99999999999999999999,1",
                       "a,urban,east,2000,0"])

    def test_int64_bounds_load(self):
        p = csv_panel(["a,urban,east,-9223372036854775808,1", "a,urban,east,9223372036854775807,1"])
        assert list(p.year) == [-(2**63), 2**63 - 1]

    @pytest.mark.parametrize("kind", ["bytes", "path"])
    def test_not_utf8_names_the_byte_whatever_comes_first(self, kind, tmp_path):
        # an earlier bad row does not hide it, even in a later block of the file
        rows = ["a,urban,east,1999,-1"] + valid_rows(3 * _BLOCK)
        data = (HEADER + "".join(r + "\n" for r in rows)).encode() + b"b,urban,east,1999,\xff\n"
        source = data
        if kind == "path":
            source = tmp_path / "p.csv"
            source.write_bytes(data)
        want = rf"^byte {len(data) - 2}: input is not UTF-8 \(invalid start byte\)$"
        with pytest.raises(MalformedRow, match=want):
            load_panel(source)

    def test_bad_header_does_not_hide_bad_bytes(self):
        with pytest.raises(MalformedRow, match=r"^byte 6: input is not UTF-8"):
            load_panel(b"a,b,c\n\xff\n")

    @pytest.mark.parametrize("newline", ["\r", "\r\n", "\n"])
    def test_every_source_kind_reads_any_line_ending(self, newline, tmp_path):
        text = newline.join([HEADER.strip(), "a,urban,east,1999,1", '"b\rc",rural,west,2000,2', ""])
        path = tmp_path / "p.csv"
        path.write_bytes(text.encode())
        sources = [text.encode(), path, io.StringIO(text, newline=""), io.BytesIO(text.encode())]
        panels = [load_panel(s) for s in sources]
        for p in panels:
            assert list(p.unit_id) == ["a", "b\rc"]
            assert p.income.tolist() == [1.0, 2.0]

    BOM = "\ufeff"

    def test_byte_order_mark_is_skipped_by_every_source_kind(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start the file with EF BB BF
        text = HEADER_CPI + "a,urban,east,1999,1,100\n" + '"b\nc",rural,west,2000,2,\n'
        plain = load_panel(text.encode())
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        sources = [b"\xef\xbb\xbf" + text.encode(), path, io.StringIO(self.BOM + text),
                   io.BytesIO((self.BOM + text).encode())]
        for source in sources:
            assert_same_panel(load_panel(source), plain)
        assert not dump_panel(plain).startswith(b"\xef\xbb\xbf")

    def test_byte_order_mark_before_a_quoted_header_field(self):
        p = load_panel((self.BOM + '"unit_id",sector,region,year,income\na,urban,east,1999,1\n').encode())
        assert p.unit_id.tolist() == ["a"]

    def test_rows_after_a_byte_order_mark_keep_their_numbers(self):
        with pytest.raises(NonPositiveIncome, match=r"^row 3: "):
            load_panel((self.BOM + HEADER + "a,urban,east,1999,1\na,urban,east,2000,0\n").encode())

    def test_only_one_byte_order_mark_is_skipped(self):
        with pytest.raises(MalformedRow, match=r"^row 1: bad header \['\\ufeffunit_id'"):
            load_panel((2 * self.BOM + HEADER + "a,urban,east,1999,1\n").encode())

    @pytest.mark.parametrize("unit", ["\ufeffa", "a\ufeff", "a\ufeffb"])
    def test_byte_order_mark_in_a_unit_id_is_part_of_the_id(self, unit):
        p = load_panel((self.BOM + HEADER + f"{unit},urban,east,1999,1\nb,urban,east,1999,2\n").encode())
        assert p.unit_id.tolist() == [unit, "b"]
        assert load_panel(dump_panel(p)).unit_id.tolist() == [unit, "b"]

    LIMIT = csv.field_size_limit()
    LONG = "u" * (LIMIT + 1)

    def test_over_long_field_loads_in_a_valid_file(self):
        p = csv_panel([f"{self.LONG},urban,east,1999,1", "b,urban,east,1999,2"])
        assert p.unit_id.tolist() == [self.LONG, "b"]

    @pytest.mark.parametrize("data, row", [
        ("unit_id{long},sector,region,year,income\nb,urban,east,1999,2\n", 1),
        (HEADER + "{long},urban,east,1999,1\nb,urban,east,1999,-1\n", 2),
        (HEADER + '"b\nc",urban,east,1999,1\n\n{long},urban,east,1999,1\nb,urban,east,1999,0\n', 4),
    ], ids=["header", "before a fault", "after a line break and a blank row"])
    def test_over_long_field_before_a_fault_is_named(self, data, row):
        want = rf"^row {row}: field larger than field limit \({self.LIMIT}\)$"
        with pytest.raises(MalformedRow, match=want):
            load_panel(data.format(long=self.LONG).encode())

    def test_over_long_field_loads_with_any_spelling(self, monkeypatch):
        # the typed pass reads what int() and float() read, so a file with
        # odd spellings never needs the row loop, whose csv.reader has the limit
        monkeypatch.setattr(panel_module, "_read_rows", _row_loop_must_not_run)
        p = csv_panel([f"{self.LONG},urban,east,1_999,1_0.5", "b,urban,east,１２,2"])
        assert p.unit_id.tolist() == [self.LONG, "b"]
        assert p.year.tolist() == [1999, 12] and p.income.tolist() == [10.5, 2.0]
        assert csv.field_size_limit() == self.LIMIT

    def test_rows_share_one_str_per_value(self):
        p = csv_panel([f" u{i % 3} ,urban ,east,{1999 + i},1" for i in range(9)])
        for column in (p.unit_id, p.sector, p.region):
            assert len({id(v) for v in column}) == len(set(column))

    def test_derived_panels_carry_the_unit_code(self):
        p = csv_panel(["a,urban,east,1999,1,100", "b,rural,west,1999,2,100", "a,urban,east,2000,3,100"],
                      cpi=True)
        for derived in (deflate(p), to_relative(deflate(p)), filter_group(p, sector="urban")):
            assert "_unit_code" in derived.__dict__
        assert filter_group(p, sector="urban")._unit_code.tolist() == [0, 0]


def _row_loop_must_not_run(lines):
    raise AssertionError("the row loop ran")


def _read(reader, data: bytes):
    """``reader`` (``_read_typed`` or ``_read_rows``) on the lines of ``data``."""
    with panel_module._text(data) as stream:
        return reader(panel_module._lines(stream))


def _csv(rows, header=HEADER, newline="\n"):
    return (header + "".join(r + newline for r in rows)).encode()


# files the typed pass reads whole, each with a CSV or spelling corner
TYPED = {
    "partly blank cpi": _csv(["a,urban,east,1999,1,100", "a,urban,east,2000,2,",
                              "b,rural,west,1999,3, "], HEADER_CPI),
    "quoted ids": _csv(['"a,b",urban,east,1999,1', '"c\rd",rural,west,1999,2',
                        '"e\nf",urban,east,1999,3', '"g""h",urban,east,1999,4']),
    "byte-order mark": b"\xef\xbb\xbf" + _csv(["a,urban,east,1999,1", "a,urban,east,2000,2"]),
    "CR endings": _csv(["a,urban,east,1999,1", "a,urban,east,2000,2"],
                       HEADER.replace("\n", "\r"), "\r"),
    "blank lines": _csv(["", "a,urban,east,1999,1", "", "", "a,urban,east,2000,2", ""]),
    "one full block": _csv(valid_rows(_BLOCK)),
    "odd spellings": _csv(["a,urban,east,1_000,1", "a,urban,east,１２,1_0.5",
                           "a,urban,east, 7 , 3 ", f"a,urban,east, {2**63 - 1} ,1e-300",
                           f"a,urban,east,{-(2**63)},２"]),
}
# files the typed pass refuses, though numpy's own number parse would take them
NUMPY_ONLY = {
    "year with an astral character": _csv(["a,urban,east,1\U0010ffff5,1"]),
    "year after U+001C": _csv(["a,urban,east,\x1c1999,1"]),
    "income after U+001F": _csv(["a,urban,east,1999,\x1f2.5"]),
}

# files that load, but whose numbers numpy's parse is not given: their text is not plain
OBJECT_PATH = {
    "non-ASCII unit_id": _csv(["é,urban,east,1999,1", "a,rural,west,1999,2"]),
    "U+001D in a unit_id": _csv(["a\x1db,urban,east,1999,1", "a,rural,west,1999,2"]),
    "U+001C before a unit_id": _csv(["\x1ca,urban,east,1999,1", "a,rural,west,1999,2"]),
    "_ in a unit_id": _csv(["prov_1,urban,east,1999,1", "prov_2,rural,west,1999,2"]),
    "_ in an income": _csv(["a,urban,east,1999,1_000", "a,rural,west,1999,2"]),
}


class TestLoaderPaths:
    """Which of load_panel's two paths reads a file, and that both give one panel."""

    @pytest.mark.parametrize("name", list(TYPED))
    def test_typed_pass_reads_the_whole_file(self, name, monkeypatch):
        monkeypatch.setattr(panel_module, "_read_rows", _row_loop_must_not_run)
        assert_loads_like_oracle(TYPED[name], TYPED[name])

    def test_typed_pass_reads_the_demo_panel(self, demo_panel_path, monkeypatch):
        monkeypatch.setattr(panel_module, "_read_rows", _row_loop_must_not_run)
        data = demo_panel_path.read_bytes()
        assert_loads_like_oracle(demo_panel_path, data)

    @pytest.mark.parametrize("name", ["odd spellings", "quoted ids", "partly blank cpi"])
    def test_row_loop_gives_the_panel(self, name):
        assert_same_panel(_read(panel_module._read_rows, TYPED[name]), expected_load(TYPED[name]))

    def test_both_paths_give_one_panel(self, demo_panel_path):
        data = demo_panel_path.read_bytes()
        typed, rows = (_read(r, data) for r in (panel_module._read_typed, panel_module._read_rows))
        assert_same_panel(typed, rows)
        for p in (typed, rows):
            for column, values in ((p.sector, SECTORS), (p.region, REGIONS)):
                assert all(any(v is s for s in values) for v in column)
            assert len({id(u) for u in p.unit_id}) == len(set(p.unit_id))

    @pytest.mark.parametrize("name", list(NUMPY_ONLY))
    def test_text_numpy_alone_reads_goes_to_the_row_loop(self, name):
        assert _read(panel_module._read_typed, NUMPY_ONLY[name]) is None
        want = r"^row 2: (year|income) '.*' is not an? (integer|number)$"
        with pytest.raises(MalformedRow, match=want):
            load_panel(NUMPY_ONLY[name])
        assert_loads_like_oracle(NUMPY_ONLY[name], NUMPY_ONLY[name])

    @pytest.mark.parametrize("row, error", [("u0,rural,east,2000,1", DuplicateKey),
                                            ("u0,rural,west,2999,1", MalformedRow)],
                             ids=["repeated-year", "region-change"])
    def test_a_refused_file_goes_to_the_row_loop(self, row, error):
        data = _csv(valid_rows(3 * _BLOCK) + [row])
        assert _read(panel_module._read_typed, data) is None
        with mock.patch.object(panel_module, "_read_rows", wraps=panel_module._read_rows) as rows:
            with pytest.raises(error, match=rf"^row {3 * _BLOCK + 2}: "):
                load_panel(data)
        assert rows.call_count == 1

    @pytest.mark.parametrize("name, plain", [(name, name != "odd spellings") for name in TYPED]
                             + [(name, False) for name in OBJECT_PATH])
    def test_numpy_parses_the_numbers_of_plain_text_alone(self, name, plain, monkeypatch):
        data = {**TYPED, **OBJECT_PATH}[name]
        monkeypatch.setattr(panel_module, "_read_rows", _row_loop_must_not_run)
        with mock.patch.object(panel_module, "_read_typed",
                               wraps=panel_module._read_typed) as typed:
            assert_loads_like_oracle(data, data)
        assert typed.call_args.args[1] is plain
        for source in (data, data.decode("utf-8")):
            assert panel_module._plain(source) is plain

    def test_a_plain_file_with_a_fault_reaches_the_row_loop(self):
        data = _csv(valid_rows(3 * _BLOCK) + ["u9,urban,east,1999,-1"])
        assert panel_module._plain(data)
        with mock.patch.object(panel_module, "_read_rows", wraps=panel_module._read_rows) as rows:
            with pytest.raises(NonPositiveIncome, match=rf"^row {3 * _BLOCK + 2}: "):
                load_panel(data)
        assert rows.call_count == 1

    def test_a_file_is_checked_chunk_by_chunk(self, tmp_path, monkeypatch):
        # chunks of 40 bytes: the first holds the header line, and each row
        # spans two chunks
        monkeypatch.setattr(panel_module, "_SCAN", 40)
        path = tmp_path / "p.csv"
        rows = ["a,urban,east,1999,1", "a,urban,east,2000,2"]
        for at, plain in ((None, True), (0, False), (1, False)):
            odd = [r.replace("a,", "a_b,") if i == at else r for i, r in enumerate(rows)]
            path.write_bytes(_csv(odd))
            assert panel_module._plain(path) is plain
            assert_loads_like_oracle(path, path.read_bytes())


# spellings on which numpy's number parse must read what int() and float() read
SPELLINGS = ["+5", " 7 ", "0005", "1e5", ".5", "1.", "-0", "-5", "nan", "-inf", "inf", "1e400",
             "1e-400", "Infinity", str(2**63 - 1), str(2**63), str(2**63 + 1), str(-(2**63)),
             str(-(2**63) - 1), "\t3\x0b", "0x10", "1 2", "", "1999.0", "--1", "5\x00"]


@pytest.mark.parametrize("spelling", SPELLINGS)
@pytest.mark.parametrize("column", ["year", "income"])
def test_numpy_reads_plain_spellings_as_python_does(spelling, column):
    row = {"year": "1999", "income": "2.5", column: spelling}
    data = _csv([f"a,urban,east,{row['year']},{row['income']}", "a,urban,east,2000,1.5"])
    assert panel_module._plain(data)
    assert_loads_like_oracle(data, data)


class TestDumpPanelChunks:
    @staticmethod
    def _plain(panel):
        lines = [",".join(_HEADER + (["cpi"] if panel.cpi is not None else []))]
        for i in range(len(panel)):
            fields = [str(panel.unit_id[i]), str(panel.sector[i]), str(panel.region[i]),
                      str(int(panel.year[i])), "%.17g" % panel.income[i]]
            if panel.cpi is not None:
                fields.append("" if math.isnan(panel.cpi[i]) else "%.17g" % panel.cpi[i])
            lines.append(",".join(fields))
        return ("\n".join(lines) + "\n").encode("utf-8")

    @pytest.mark.parametrize("n", [0, 1, _BLOCK, _BLOCK + 1])
    @pytest.mark.parametrize("cpi", [False, True])
    def test_bytes_equal_a_row_at_a_time(self, n, cpi):
        rng = np.random.default_rng(n)
        p = Panel(
            unit_id=np.array([f"ü{i % 97}" for i in range(n)], dtype=object),
            sector=np.array(["urban", "rural"] * n, dtype=object)[:n],
            region=np.array(["east"] * n, dtype=object),
            year=np.arange(n) - 5,
            income=rng.lognormal(0.0, 3.0, n),
            cpi=np.where(rng.random(n) < 0.3, np.nan, rng.uniform(1, 200, n)) if cpi else None,
        )
        assert dump_panel(p) == self._plain(p)

    def test_a_unit_whose_region_changes_keeps_each_rows_region(self):
        # a panel built in code may move a unit; its text is built per unit
        p = Panel(
            unit_id=np.array(["a", "a", "b,c", "a", "b,c"], dtype=object),
            sector=np.array(["urban"] * 5, dtype=object),
            region=np.array(["east", "west", "east", "east", "other"], dtype=object),
            year=np.arange(5),
            income=np.ones(5),
        )
        assert dump_panel(p) == self._plain(p).replace(b"b,c", b'"b,c"')

    @pytest.mark.parametrize("cut", [
        lambda p: filter_group(p, sector="urban"),
        lambda p: filter_group(p, region="west"),
        lambda p: poorest_fraction(p, 1999, 0.3),
    ], ids=["urban", "west", "poorest"])
    def test_a_subgroup_keeps_its_parents_codes_and_dumps_row_by_row(self, cut,
                                                                     demo_panel_path):
        sub = cut(load_panel(demo_panel_path))
        codes = np.unique(sub._unit_code)
        assert not np.array_equal(codes, np.arange(len(codes)))  # codes with gaps
        raw = dump_panel(sub)
        assert raw == self._plain(sub)
        again = load_panel(raw)
        for name in ("unit_id", "sector", "region", "year", "income"):
            assert getattr(again, name).tolist() == getattr(sub, name).tolist()


def _columns(n=2, **override):
    """Panel columns of n rows, with some replaced."""
    columns = dict(
        unit_id=np.array(["a"] * n, dtype=object),
        sector=np.array(["urban"] * n, dtype=object),
        region=np.array(["east"] * n, dtype=object),
        year=1999 + np.arange(n),
        income=np.ones(n),
    )
    return {**columns, **override}


_RELATIVE = Panel(**_columns(), is_relative=True)


@pytest.mark.parametrize("make, error, message", [
    (lambda: Panel(**_columns(sector=np.array(["urban"], dtype=object))), ValueError,
     "column sector has wrong length"),
    (lambda: Panel(**_columns(region=np.array(["east"] * 3, dtype=object))), ValueError,
     "column region has wrong length"),
    (lambda: Panel(**_columns(year=np.array([1999]))), ValueError, "column year has wrong length"),
    (lambda: Panel(**_columns(income=np.ones(1))), ValueError, "column income has wrong length"),
    (lambda: Panel(**_columns(), cpi=np.ones(3)), ValueError, "column cpi has wrong length"),
    (lambda: TransitionPairs(np.ones(2), np.ones(3)), ValueError,
     "x and y must have equal length"),
    (lambda: build_transition_pairs(_RELATIVE, tau=0), ValueError,
     "tau must be a positive integer, got 0"),
    (lambda: load_panel(42), TypeError, "cannot read a panel from int"),
    (lambda: deflate(_RELATIVE), ValueError, "panel is already in relative terms"),
    (lambda: filter_group(_RELATIVE, region="north"), ValueError, "unknown region 'north'"),
], ids=["sector-length", "region-length", "year-length", "income-length", "cpi-length",
        "pairs-length", "pairs-tau", "source-type", "deflate-relative", "unknown-region"])
def test_rejections(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message
