"""Serialization tests: canonical JSON, surface files, CSV tables."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvedual import DataError, HarmonicCoeffs, build_grid, sphere_surface
from curvedual.geometry import GraphSurface, curvature_field
from curvedual.io import (
    _csv_lines,
    dumps_canonical,
    format_float,
    read_surface,
    surface_from_dict,
    surface_to_dict,
    write_field_csv,
    write_nodes_csv,
    write_surface,
)
from curvedual.polar import gauss_map
from curvedual.spectral import lm_index


def random_surface(L_max=8, seed=3, scale=0.01):
    rng = np.random.default_rng(seed)
    radial = HarmonicCoeffs.zeros(L_max)
    radial.values[:] = scale * rng.standard_normal(radial.values.shape)
    radial[0, 0] = (np.pi / 4) * math.sqrt(4.0 * np.pi)
    return GraphSurface(n=2, pole=np.array([0.0, 0.0, 0.0, 1.0]),
                        radial=radial, gauge_tau0=-2.3)


class TestFloatFormat:
    def test_seventeen_digits_round_trip(self):
        rng = np.random.default_rng(11)
        for x in rng.standard_normal(200) * 10.0 ** rng.integers(-8, 8, 200):
            assert float(format_float(x)) == x

    def test_integral_floats_stay_short(self):
        assert format_float(1.0) == "1"
        assert format_float(-4.0) == "-4"

    def test_known_value(self):
        assert format_float(0.1) == "0.10000000000000001"


class TestCanonicalJson:
    def test_scalars(self):
        assert dumps_canonical(True) == "true"
        assert dumps_canonical(None) == "null"
        assert dumps_canonical(3) == "3"
        assert dumps_canonical("a\"b\\c") == '"a\\"b\\\\c"'

    def test_non_finite_become_quoted_strings(self):
        assert dumps_canonical(float("nan")) == '"nan"'
        assert dumps_canonical(float("inf")) == '"inf"'
        assert dumps_canonical(float("-inf")) == '"-inf"'

    def test_numeric_lists_inline(self):
        assert dumps_canonical([1.5, 2.5, -3.0]) == "[1.5, 2.5, -3]"

    def test_nested_layout(self):
        doc = {"a": 1, "b": {"c": [1.0, 2.0]}}
        expected = '{\n  "a": 1,\n  "b": {\n    "c": [1, 2]\n  }\n}'
        assert dumps_canonical(doc) == expected

    def test_key_order_preserved(self):
        out = dumps_canonical({"z": 1, "a": 2})
        assert out.index('"z"') < out.index('"a"')

    def test_deterministic_bytes(self):
        doc = {"x": [0.1, float(np.pi)], "flag": False}
        assert dumps_canonical(doc) == dumps_canonical(doc)

    def test_numpy_scalars_accepted(self):
        out = dumps_canonical({"v": np.float64(0.5), "k": np.int64(7)})
        assert '"v": 0.5' in out and '"k": 7' in out


class TestSurfaceFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        surface = random_surface()
        path = tmp_path / "surface.json"
        write_surface(path, surface)
        back = read_surface(path)
        # 17 significant digits reproduce every double exactly
        assert np.array_equal(back.radial.values, surface.radial.values)
        assert back.gauge_tau0 == surface.gauge_tau0
        assert np.array_equal(back.pole, surface.pole)
        assert back.L_max == surface.L_max
        assert back.n == surface.n

    @pytest.mark.parametrize("L_max", [4, 8, 32])
    def test_writer_matches_generic_emitter(self, tmp_path, L_max):
        # the per-entry format against dumps_canonical, on the extreme
        # doubles, the non-finite texts and a surface with no entries
        surface = random_surface(L_max)
        surface.radial.values[1:7] = [-0.0, 5e-324, 1.7976931348623157e308,
                                      np.nan, np.inf, -np.inf]
        empty = random_surface(L_max)
        empty.radial.values[:] = 0.0
        for s in (surface, empty):
            path = tmp_path / "surface.json"
            write_surface(path, s)
            assert path.read_bytes() == (
                dumps_canonical(surface_to_dict(s)) + "\n").encode()

    def test_zero_coefficients_dropped(self):
        surface = sphere_surface(np.pi / 4, L_max=6)
        doc = surface_to_dict(surface)
        assert len(doc["radial"]) == 1
        assert doc["radial"][0]["l"] == 0 and doc["radial"][0]["m"] == 0

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 2, "pole": [0')
        with pytest.raises(DataError):
            read_surface(path)

    def test_rejects_unknown_keys(self):
        doc = surface_to_dict(sphere_surface(np.pi / 4, L_max=4))
        doc["extra"] = 1
        with pytest.raises(DataError, match="unknown surface keys"):
            surface_from_dict(doc)

    def test_rejects_missing_field(self):
        doc = surface_to_dict(sphere_surface(np.pi / 4, L_max=4))
        del doc["gauge_tau0"]
        with pytest.raises(DataError, match="malformed"):
            surface_from_dict(doc)

    def test_rejects_mode_outside_truncation(self):
        doc = surface_to_dict(sphere_surface(np.pi / 4, L_max=4))
        doc["radial"].append({"l": 5, "m": 0, "value": 0.1})
        with pytest.raises(DataError, match="outside truncation"):
            surface_from_dict(doc)

    def test_rejects_bad_order_pair(self):
        doc = surface_to_dict(sphere_surface(np.pi / 4, L_max=4))
        doc["radial"].append({"l": 2, "m": 3, "value": 0.1})
        with pytest.raises(DataError):
            surface_from_dict(doc)

    @pytest.mark.parametrize("key, value, message", [
        ("L_max", 8.7, "surface L_max must be an integer"),
        ("L_max", "8", "surface L_max must be numeric"),
        ("n", True, "surface n must be numeric"),
        ("gauge_tau0", "0.5", "surface gauge_tau0 must be numeric"),
        ("pole", [0, 0, 0, "1"], "surface pole must be numeric"),
        ("radial", {"l": 0}, "invalid L_max, pole or radial"),
        ("gauge_tau0", math.nan, "surface gauge_tau0 must be finite"),
        ("gauge_tau0", -math.inf, "surface gauge_tau0 must be finite"),
    ])
    def test_rejects_non_numeric_field(self, key, value, message):
        doc = surface_to_dict(sphere_surface(np.pi / 4, L_max=8))
        doc[key] = value
        with pytest.raises(DataError, match=message):
            surface_from_dict(doc)

    @pytest.mark.parametrize("entry, message", [
        ({"l": 0.9, "m": 0, "value": 2.7}, "radial l must be an integer"),
        ({"l": 2, "m": 0.5, "value": 0.1}, "radial m must be an integer"),
        ({"l": 2, "m": 0, "value": "2.7"}, "radial value must be numeric"),
        ({"l": 2, "m": 0, "value": True}, "radial value must be numeric"),
        ({"l": None, "m": 0, "value": 0.1}, "radial l must be numeric"),
        ({"l": 2, "m": 0, "value": math.nan}, "radial value at"),
        ({"l": 2, "m": 0, "value": math.inf}, "radial value at"),
        ({"l": 2, "m": 0, "value": -math.inf}, "radial value at"),
        # the sphere document already holds (0, 0)
        ({"l": 0, "m": 0, "value": 0.5}, r"entry \(l=0, m=0\) is repeated"),
        # fits a float, but numpy holds an int this large as an object
        ({"l": 2, "m": 0, "value": 2**64}, "radial value must be numeric"),
    ])
    def test_rejects_non_numeric_entry(self, entry, message):
        doc = surface_to_dict(sphere_surface(np.pi / 4, L_max=8))
        doc["radial"].append(entry)
        with pytest.raises(DataError, match=message):
            surface_from_dict(doc)

    @pytest.mark.parametrize("bad, later, message", [
        # the first bad entry is reported, whatever fault comes after it
        ({"l": 2, "m": 0.5, "value": 0.1}, {"m": 0, "value": 0.1},
         "radial m must be an integer"),
        ({"m": 0, "value": 0.1}, {"l": 2, "m": 0.5, "value": 0.1},
         "malformed radial entry"),
        ({"l": 10**400, "m": 0, "value": 0.1}, {"l": 2, "m": 0, "value": True},
         "radial l must be numeric"),
        ({"l": 9, "m": 0, "value": 0.1}, {"l": 2, "m": 0, "value": True},
         "outside truncation"),
        ({"l": 2, "m": 0, "value": 10**400}, {"l": 0.5, "m": 0, "value": 1.0},
         "radial value must be numeric"),
        ({"l": 3, "m": 1, "value": 0.1}, {"l": 3, "m": 1, "value": 0.2},
         r"entry \(l=3, m=1\) is repeated"),
    ])
    def test_first_bad_entry_in_list_order(self, bad, later, message):
        doc = surface_to_dict(random_surface(8))
        doc["radial"][40:40] = [bad, later]
        with pytest.raises(DataError, match=message):
            surface_from_dict(doc)

    def test_integral_floats_accepted(self):
        doc = surface_to_dict(sphere_surface(np.pi / 4, L_max=8))
        doc.update(n=2.0, L_max=8.0)
        doc["radial"].append({"l": 2.0, "m": 0.0, "value": 1})
        back = surface_from_dict(doc)
        assert back.L_max == 8 and type(back.L_max) is int
        assert back.radial[2, 0] == 1.0

    @pytest.mark.parametrize("key, value", [
        ("n", 3), ("pole", [0, 0, 0, 2]), ("pole", [0, 0, 0, float("nan")]),
        ("L_max", 0), ("L_max", 2), ("L_max", 3), ("L_max", -1),
    ])
    def test_rejects_surface_that_cannot_be_sampled(self, key, value):
        doc = surface_to_dict(sphere_surface(np.pi / 4, L_max=8))
        doc[key] = value
        with pytest.raises(DataError, match="n = 2, L_max >= 4 and a unit"):
            surface_from_dict(doc)

    def test_rejects_short_pole(self):
        doc = surface_to_dict(sphere_surface(np.pi / 4, L_max=4))
        doc["pole"] = [0.0, 0.0, 1.0]
        with pytest.raises(DataError, match="invalid"):
            surface_from_dict(doc)


class TestCsvTables:
    def test_field_csv_header_and_values(self, tmp_path):
        path = tmp_path / "field.csv"
        theta = np.array([0.5, 1.0])
        phi = np.array([0.0, 2.0])
        values = np.array([1.25, -0.5])
        write_field_csv(path, theta, phi, values)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["theta", "phi", "value"]
        assert len(rows) == 3
        assert float(rows[1][2]) == 1.25

    def test_nodes_csv_header(self, tmp_path):
        surface = sphere_surface(np.pi / 4, L_max=6)
        field = curvature_field(surface, build_grid(6))
        path = tmp_path / "nodes.csv"
        write_nodes_csv(path, field)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["theta", "phi", "r", "kappa1", "kappa2",
                           "x0", "x1", "x2", "x3", "n0", "n1", "n2", "n3"]
        assert len(rows) == 1 + field.grid.n_nodes
        # sphere row: r = pi/4, both curvatures cot(pi/4) = 1
        assert float(rows[1][2]) == pytest.approx(np.pi / 4, abs=1e-12)
        assert float(rows[1][3]) == pytest.approx(1.0, abs=1e-10)

    def test_dual_samples_csv_header(self, tmp_path):
        from curvedual.io import write_dual_samples_csv

        surface = sphere_surface(np.pi / 4, L_max=6)
        samples = gauss_map(curvature_field(surface, build_grid(6)))
        path = tmp_path / "dual.csv"
        write_dual_samples_csv(path, samples)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["theta", "phi", "eta_theta", "eta_phi",
                           "r_star", "kt1", "kt2"]
        assert float(rows[1][4]) == pytest.approx(np.pi / 4, abs=1e-10)

    @staticmethod
    def reference_csv(path, columns):
        # csv.writer over format_float text, one value at a time
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["theta", "phi", "value"])
            for row in zip(*columns):
                writer.writerow([format_float(v) for v in row])

    def test_rows_match_csv_writer_byte_for_byte(self, tmp_path):
        special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                   -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                   0.1, 1.0, -4.0, 2.2250738585072014e-308, 1e16, 1e-5,
                   # round up to the next power of ten at 17 digits
                   9.9999999999999999e-5, 99999.999999999999,
                   9.9999999999999999e15, 0.99999999999999999]
        # both ends of the fixed-notation window and every power of ten
        # in it, with their nextafter neighbours
        edges = []
        for p in [1e-4, 1e16] + [10.0 ** k for k in range(-4, 17)]:
            below, above = p, p
            for _ in range(3):
                below, above = np.nextafter(below, 0), np.nextafter(above, 2 * p)
                edges += [below, p, above]
        rng = np.random.default_rng(12)
        window = (rng.choice([-1.0, 1.0], 4000)
                  * 10.0 ** rng.uniform(-4.0, 16.0, 4000))
        # short decimals, where ties at the 17th digit are likely, and
        # dyadic rationals, whose decimal expansions end
        decimals = rng.integers(-10**7, 10**7, 1000) \
            / 10.0 ** rng.integers(0, 12, 1000)
        dyadic = rng.integers(-2**30, 2**30, 1000) \
            / 2.0 ** rng.integers(0, 60, 1000)
        wide = rng.standard_normal(100) * 10.0 ** rng.integers(-300, 300, 100)
        theta = np.concatenate([special, edges, window, decimals, dyadic, wide])
        columns = [theta, theta[::-1].copy(), np.roll(theta, 7)]
        path, ref = tmp_path / "field.csv", tmp_path / "ref.csv"
        write_field_csv(path, *columns)
        self.reference_csv(ref, columns)
        assert path.read_bytes() == ref.read_bytes()

    def test_special_values_raise_no_floating_point_error(self, tmp_path):
        values = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                           -5e-324, 1e-310, 2.2250738585072014e-308])
        columns = [values, values[::-1].copy(), -values]
        path, ref = tmp_path / "field.csv", tmp_path / "ref.csv"
        with np.errstate(all="raise"):
            write_field_csv(path, *columns)
        self.reference_csv(ref, columns)
        assert path.read_bytes() == ref.read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats() | st.floats(-1e16, 1e16), min_size=1,
                    max_size=40))
    def test_lines_match_percent_format(self, values):
        column = np.array(values)[:, None]
        assert _csv_lines(column) == "".join(
            "%.17g\r\n" % v for v in values).encode()
        assert _csv_lines(column.T) == (
            ",".join("%.17g" % v for v in values) + "\r\n").encode()
