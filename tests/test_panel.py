"""Panel loading, validation, normalization, grouping and pair construction."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distdyn import (
    DuplicateKey,
    EmptySelection,
    EmptyYear,
    MalformedRow,
    MissingBaseYear,
    MissingCpi,
    NonPositiveIncome,
    NoPairs,
    Panel,
    build_transition_pairs,
    deflate,
    dump_panel,
    filter_group,
    group_shares,
    load_panel,
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
    @settings(max_examples=30, deadline=None)
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
        assert pairs.tau == 1
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
    @settings(max_examples=25, deadline=None)
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
