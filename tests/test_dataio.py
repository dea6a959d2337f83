import json
import re

import numpy as np
import pytest
from _oracles import read_matrix_csv_oracle, write_matrix_csv_oracle

from topofuse import dataio
from topofuse.errors import (
    DuplicateSpotId,
    InvalidDataset,
    MissingFile,
    NonNumericCell,
    OutOfRange,
    RowCountMismatch,
    UnknownKey,
)


class TestRunConfig:
    def test_config_from_dict_tracks_explicit_keys_and_ignores_them_for_equality(self):
        cfg = dataio.config_from_dict({"nu": 1.0, "epochs": 5})
        assert cfg.nu == 1.0 and cfg.epochs == 5
        assert cfg.explicit == frozenset({"nu", "epochs"})
        assert cfg == dataio.RunConfig(nu=1.0, epochs=5)
        assert "explicit" not in cfg.to_dict()

    @pytest.mark.parametrize(
        "kv",
        [
            {"nu": 0.0},
            {"nu": -1.0},
            {"theta": 1.5},
            {"lambda_": -0.1},
            {"alpha": -1.0},
            {"r_u_tr": 0.0},
            {"r_u_mo": 1.5},
            {"epochs": 0},
            {"d_emb": 0},
            {"lr": -0.001},
            {"seed": -1},
            {"epsilon_radius": "never"},
            {"epsilon_radius": -2.0},
            {"epsilon_radius": float("inf")},
            {"epsilon_radius": float("nan")},
            {"fusion_mode": "mean"},
            {"epochs": 2.5},
            {"refine": 1},
        ],
    )
    def test_invalid_values_rejected(self, kv):
        with pytest.raises(OutOfRange):
            dataio.config_from_dict(kv)

    # per key: a value of the right kind out of range (None where the kind has
    # no range), and a value of the wrong kind
    _BAD = {
        "k_tr": (0, "7"),
        "k_mo": (-1, 7.5),
        "r_u_tr": (0.0, "0.1"),
        "r_u_mo": (1.5, True),
        "nu": (0.0, "0.05"),
        "d_emb": (0, True),
        "theta": (-0.1, [0.9]),
        "lambda_": (-0.1, "0.01"),
        "alpha": (-1.0, "2"),
        "tau": (-1, 50.5),
        "n_mlp": (0, "1"),
        "lr": (-0.001, False),
        "epochs": (0, 2.5),
        "seed": (-1, "42"),
        "epsilon_radius": (0.0, True),
        "n_clusters": (0, "7"),
        "refine": (None, 1),
        "fusion_mode": ("mean", 1),
    }

    def test_bad_value_table_covers_every_key(self):
        assert list(self._BAD) == list(dataio.RunConfig().to_dict())

    @pytest.mark.parametrize("key, value", [(k, v) for k, pair in _BAD.items() for v in pair if v is not None])
    def test_every_key_rejects_out_of_range_and_wrong_kind(self, key, value):
        with pytest.raises(OutOfRange, match=f"config key '{key}'"):
            dataio.config_from_dict({key: value})

    def test_config_from_dict_rejects_unknown_keys(self):
        with pytest.raises(UnknownKey):
            dataio.config_from_dict({"nu": 1.0, "bogus": 3})

    def test_config_from_dict_coerces_whole_json_floats(self):
        cfg = dataio.config_from_dict({"epochs": 10.0, "nu": 0.5})
        assert cfg.epochs == 10 and isinstance(cfg.epochs, int)

    def test_round_trip_through_file(self, tmp_path):
        cfg = dataio.config_from_dict({"nu": 0.2, "epochs": 33, "epsilon_radius": 1.25, "refine": True})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert dataio.config_from_dict(dataio.load_config(str(path))) == cfg

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(MissingFile):
            dataio.load_config(str(tmp_path / "nope.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(NonNumericCell):
            dataio.load_config(str(bad))
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]\n")
        with pytest.raises(NonNumericCell):
            dataio.load_config(str(arr))


class TestMatrixCsv:
    def test_round_trip_is_exact(self, tmp_path, rng):
        m = rng.normal(size=(7, 4)) * 10.0 ** rng.integers(-12, 12, size=(7, 4))
        path = tmp_path / "m.csv"
        ids = [f"s{i}" for i in range(7)]
        cols = ["a", "b", "c", "d"]
        dataio.write_matrix_csv(str(path), ids, cols, m)
        cols2, ids2, m2 = dataio.read_matrix_csv(str(path))
        assert cols2 == cols and ids2 == ids
        assert np.array_equal(m2, m)

    def test_write_shape_mismatch(self, tmp_path):
        with pytest.raises(RowCountMismatch):
            dataio.write_matrix_csv(str(tmp_path / "m.csv"), ["a"], ["x"], np.zeros((2, 1)))

    def test_read_errors(self, tmp_path):
        with pytest.raises(MissingFile):
            dataio.read_matrix_csv(str(tmp_path / "gone.csv"))
        p = tmp_path / "dup.csv"
        p.write_text("spot_id,x\na,1\na,2\n")
        with pytest.raises(DuplicateSpotId):
            dataio.read_matrix_csv(str(p))
        p2 = tmp_path / "nan.csv"
        p2.write_text("spot_id,x\na,nan\n")
        with pytest.raises(NonNumericCell):
            dataio.read_matrix_csv(str(p2))
        p3 = tmp_path / "text.csv"
        p3.write_text("spot_id,x\na,hello\n")
        with pytest.raises(NonNumericCell):
            dataio.read_matrix_csv(str(p3))
        p4 = tmp_path / "ragged.csv"
        p4.write_text("spot_id,x,y\na,1\n")
        with pytest.raises(RowCountMismatch):
            dataio.read_matrix_csv(str(p4))

    def test_errors_past_the_first_row_name_their_row(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("spot_id,x,y\na,1,2\nb,3,4\nc,5\n")
        with pytest.raises(RowCountMismatch, match=re.escape(f"expr row 4 of {p} has 2 fields, header has 3")):
            dataio.read_matrix_csv(str(p), "expr")
        p.write_text("spot_id,x,y\na,1,2\nb,3,hello\n")
        with pytest.raises(NonNumericCell, match=re.escape("expr cell at row 'b', column 'y' is not numeric: 'hello'")):
            dataio.read_matrix_csv(str(p), "expr")
        p.write_text("spot_id,x,y\na,1,2\nb,3,4\nc,-inf,6\n")
        with pytest.raises(NonNumericCell, match=re.escape("expr cell at row 'c', column 'x' is not finite: '-inf'")):
            dataio.read_matrix_csv(str(p), "expr")

    def test_empty_file_and_header_only(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(InvalidDataset, match=re.escape(f"expr file {p} is empty")):
            dataio.read_matrix_csv(str(p), "expr")
        p.write_text("spot_id,x,y\n")
        cols, ids, m = dataio.read_matrix_csv(str(p))
        assert cols == ["x", "y"] and ids == []
        assert m.shape == (0, 2) and m.dtype == np.float64


_LIMIT = 131072  # the csv module's default field size limit
_WIDE = 7000  # columns of a line longer than that limit, each field well within it

# Each file as bytes: well-formed ones, which numpy's loadtxt parses, and every
# kind the cell-by-cell reader must judge.
READ_CASES = {
    "lf": b"spot_id,x,y\na,1,2\nb,3.5,-4e-3\n",
    "crlf": b"spot_id,x,y\r\na,1,2\r\nb,3.5,-4e-3\r\n",
    "cr_only": b"spot_id,x,y\ra,1,2\rb,3.5,-4e-3\r",
    "no_final_newline": b"spot_id,x,y\r\na,1,2\r\nb,3,4",
    "cr_only_no_final_newline": b"spot_id,x,y\ra,1,2\rb,3,4",
    "cr_inside_a_line": b"spot_id,x,y\na,1\r,2\n",
    "cr_before_crlf": b"spot_id,x,y\r\na,1,2\r\r\n",
    "blank_line_in_the_middle": b"spot_id,x,y\na,1,2\n\nb,3,4\n",
    "two_blank_lines_at_the_end": b"spot_id,x,y\r\na,1,2\r\nb,3,4\r\n\r\n\r\n",
    "quoted_id_with_comma": b'spot_id,x,y\r\n"a,b",1,2\r\nc,3,4\r\n',
    "quoted_id_with_doubled_quote": b'spot_id,x,y\r\n"a""b",1,2\r\n',
    "quoted_id_with_newline": b'spot_id,x,y\r\n"a\r\nb",1,2\r\nc,3,4\r\n',
    "quoted_value": b'spot_id,x,y\na,"1",2\n',
    "quoted_header": b'"spot_id","x",y\na,1,2\n',
    "nel_in_an_id": "spot_id,x,y\na\x85b,1,2\nc,3,4\n".encode(),
    "line_separator_in_an_id": "spot_id,x,y\r\na\u2028b,1,2\r\n".encode(),
    "nel_where_splitlines_sees_two_rows": "spot_id,x\na,1\x85b,2\n".encode(),
    "line_separator_after_a_value": "spot_id,x\na,1\u2028\n".encode(),
    "spaces_around_cells": b"spot_id,x,y\na, 1 ,\t2\nb,3 ,  4\n",
    "whitespace_only_cell": b"spot_id,x\na, \n",
    "underscore_digits": b"spot_id,x\na,1_000\n",
    "hex_float": b"spot_id,x\na,0x1p3\n",
    "non_ascii_digits": "spot_id,x,y\na,\u0661\u0662,1\u0663\n".encode(),
    "superscript": "spot_id,x\na,1\u00b2\n".encode(),
    "nan": b"spot_id,x\na,1\nb,nan\n",
    "minus_inf": b"spot_id,x,y\na,1,2\nb,3,4\nc,-inf,6\n",
    "infinity": b"spot_id,x\na,Infinity\n",
    "overflow_to_inf": b"spot_id,x\na,1e400\n",
    "signs_and_forms": b"spot_id,x,y,z\na,+1,.5,1.\nb,-0,1E5,0.0000001\nc,5e-324,-1e-320,1.7976931348623157e308\n",
    "hash_in_a_cell": b"spot_id,x\na,1#2\n",
    "nul_bytes": b"spot_id,x\na\x00b,1\nc,2\x00\n",
    "empty_cell": b"spot_id,x,y\na,,2\n",
    "empty_one_column_cell": b"spot_id,x\na,1\nb,\nc,3\n",
    "one_field_too_many": b"spot_id,x,y\na,1,2,3\n",
    "one_field_too_many_later": b"spot_id,x,y\na,1,2\nb,1,2,3\n",
    "one_field_too_few": b"spot_id,x,y\na,1\n",
    "one_field_too_few_later": b"spot_id,x,y\na,1,2\nb,3,4\nc,5\n",
    "utf8_bom": b"\xef\xbb\xbfspot_id,x,y\r\na,1,2\r\n",
    "non_ascii_ids": "spot_id,x\näß,1\n雪,2\n".encode(),
    "duplicate_ids": b"spot_id,x\na,1\na,2\n",
    "duplicate_ids_and_a_bad_cell": b"spot_id,x\na,1\na,2\nb,z\n",
    "header_only": b"spot_id,x,y\r\n",
    "header_only_no_newline": b"spot_id,x,y",
    "header_without_a_comma": b"spot_id\na\nb\n",
    "header_without_a_comma_alone": b"spot_id\n",
    "empty": b"",
    "newline_only": b"\n",
    "latin1": "spot_id,x\nä,1\n".encode("latin-1"),
    "latin1_past_the_first_read": ("spot_id,x\n" + "a%d,1\n" * 4000 % tuple(range(4000)) + "ä,2\n").encode("latin-1"),
    "field_over_the_csv_limit": b"spot_id,x\n" + b"a" * (_LIMIT + 1) + b",1\n",
    "line_over_the_csv_limit": (
        "spot_id," + ",".join(f"c{j}" for j in range(_WIDE)) + "\r\n"
        + "".join(f"s{i}," + ",".join(["0.12345678901234567"] * _WIDE) + "\r\n" for i in range(2))
    ).encode(),
}


# where read_matrix_csv fails on purpose unlike the cell reader, which lets _csv.Error escape
_OWN_OUTCOMES = {
    "field_over_the_csv_limit": lambda path: (
        InvalidDataset,
        f"expr file {path} is not readable as CSV: field larger than field limit ({_LIMIT})",
    ),
}


def _outcome(read, path):
    try:
        cols, ids, m = read(path, "expr")
    except Exception as e:  # the two readers must fail alike
        return type(e), str(e)
    return cols, ids, m.shape, m.dtype, m.tobytes()


class TestReadMatrixCsvAgainstCellReader:
    """read_matrix_csv against the cell-by-cell reader it replaced: same result, or same error unless _OWN_OUTCOMES names one."""

    @pytest.mark.parametrize("name", sorted(READ_CASES))
    def test_same_columns_ids_and_bytes_or_same_error(self, tmp_path, name):
        path = tmp_path / "m.csv"
        path.write_bytes(READ_CASES[name])
        want = _OWN_OUTCOMES[name](path) if name in _OWN_OUTCOMES else _outcome(read_matrix_csv_oracle, str(path))
        assert _outcome(dataio.read_matrix_csv, str(path)) == want

    def test_every_double_parses_as_float_does(self, tmp_path, rng):
        bits = rng.integers(0, 2**63, size=(300, 8), dtype=np.int64) * rng.choice([1, -1], size=(300, 8))
        m = bits.view(np.float64)
        m[~np.isfinite(m)] = 1.0
        m[:3] = [[5e-324, -0.0, 2.2250738585072014e-308, 1e300, 0.1, 1 / 3, 2.0**53 + 1, 123456789.0]] * 3
        forms = ("%.17g".__mod__, repr, "%.6g".__mod__)  # long, shortest and rounded texts
        rows = [f"s{i}," + ",".join(map(forms[i % 3], row)) for i, row in enumerate(m.tolist())]
        path = tmp_path / "m.csv"
        path.write_text("spot_id," + ",".join(f"c{j}" for j in range(8)) + "\n" + "\n".join(rows) + "\n")
        want = _outcome(read_matrix_csv_oracle, str(path))
        assert isinstance(want[0], list)
        assert _outcome(dataio.read_matrix_csv, str(path)) == want


class TestWriteMatrixCsvBytes:
    """write_matrix_csv against the cell-by-cell writer it replaced: the same bytes."""

    @pytest.mark.parametrize(
        "ids",
        [
            ["a,b", 'say "hi"', "cr\rhere", "lf\nhere", " lead", "café 雪", ""],
            ["plain", " ", "\x85", "crlf\r\n", '"', ","],
        ],
    )
    def test_ids_needing_quotes(self, tmp_path, rng, ids):
        m = rng.normal(size=(len(ids), 3))
        self._same(tmp_path, ids, ["x", "y,z", 'q"'], m)

    def test_special_values(self, tmp_path):
        vals = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, -1e-300, 3.0, -17.0, 2.0**60, 0.1]
        m = np.array(vals).reshape(2, 6)
        self._same(tmp_path, ["a", "b"], [f"c{j}" for j in range(6)], m)

    @pytest.mark.parametrize("shape", [(0, 3), (0, 0), (4, 0), (5, 1), (30, 72)])
    def test_shapes(self, tmp_path, rng, shape):
        m = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        self._same(tmp_path, [f"s{i}" for i in range(shape[0])], [f"c{j}" for j in range(shape[1])], m)

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.bool_])
    def test_other_dtypes(self, tmp_path, rng, dtype):
        m = (rng.normal(size=(4, 3)) * 1e3).astype(dtype)
        self._same(tmp_path, ["a", "b", "c", "d"], ["x", "y", "z"], m)

    def test_labels(self, tmp_path):
        labels = np.array([0, 3, 12, 6], dtype=np.float64).reshape(-1, 1)
        self._same(tmp_path, ["a", "b", "c", "d"], ["label"], labels)

    @staticmethod
    def _same(tmp_path, ids, cols, m):
        dataio.write_matrix_csv(str(tmp_path / "new.csv"), ids, cols, m)
        write_matrix_csv_oracle(str(tmp_path / "old.csv"), ids, cols, m)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _toy_dataset(rng, n=6, g=3, with_mor=True, with_labels=True):
    return dataio.SpotDataset(
        tra=rng.uniform(0, 5, size=(n, g)),
        coords=rng.uniform(0, 4, size=(n, 2)),
        spot_ids=[f"s{i}" for i in range(n)],
        gene_ids=[f"g{j}" for j in range(g)],
        mor=rng.normal(size=(n, 2)) if with_mor else None,
        labels=rng.integers(0, 2, n) if with_labels else None,
    )


class TestDataset:
    def test_validation(self, rng):
        with pytest.raises(RowCountMismatch):
            dataio.SpotDataset(np.zeros((3, 2)), np.zeros((2, 2)), ["a", "b", "c"], ["g0", "g1"])
        with pytest.raises(NonNumericCell):
            dataio.SpotDataset(
                np.array([[1.0, np.inf], [0, 0]]), np.zeros((2, 2)), ["a", "b"], ["g0", "g1"]
            )
        with pytest.raises(RowCountMismatch):
            dataio.SpotDataset(np.zeros((2, 2)), np.zeros((2, 2)), ["a", "b"], ["g0"])

    def test_write_then_load_round_trip(self, tmp_path, rng):
        ds = _toy_dataset(rng)
        dataio.write_dataset(ds, str(tmp_path))
        back = dataio.load_dataset(
            str(tmp_path / "tra.csv"),
            str(tmp_path / "coords.csv"),
            mor_path=str(tmp_path / "mor.csv"),
            labels_path=str(tmp_path / "labels.csv"),
        )
        assert back.spot_ids == ds.spot_ids and back.gene_ids == ds.gene_ids
        assert np.array_equal(back.tra, ds.tra)
        assert np.array_equal(back.coords, ds.coords)
        assert np.array_equal(back.mor, ds.mor)
        assert np.array_equal(back.labels, ds.labels)

    def test_side_files_align_by_spot_id(self, tmp_path, rng):
        ds = _toy_dataset(rng, with_mor=False, with_labels=False)
        dataio.write_dataset(ds, str(tmp_path))
        # coords written in reversed row order must land back in tra order
        dataio.write_matrix_csv(
            str(tmp_path / "coords.csv"), ds.spot_ids[::-1], ["x", "y"], ds.coords[::-1]
        )
        back = dataio.load_dataset(str(tmp_path / "tra.csv"), str(tmp_path / "coords.csv"))
        assert np.array_equal(back.coords, ds.coords)

    def test_missing_spot_in_side_file(self, tmp_path, rng):
        ds = _toy_dataset(rng, with_mor=False, with_labels=False)
        dataio.write_dataset(ds, str(tmp_path))
        dataio.write_matrix_csv(
            str(tmp_path / "coords.csv"), ds.spot_ids[:-1], ["x", "y"], ds.coords[:-1]
        )
        with pytest.raises(RowCountMismatch):
            dataio.load_dataset(str(tmp_path / "tra.csv"), str(tmp_path / "coords.csv"))

    def test_fractional_labels_rejected(self, tmp_path, rng):
        ds = _toy_dataset(rng, with_labels=False)
        dataio.write_dataset(ds, str(tmp_path))
        (tmp_path / "labels.csv").write_text(
            "spot_id,label\n" + "".join(f"s{i},{i + 0.5}\n" for i in range(ds.n_spots))
        )
        with pytest.raises(NonNumericCell):
            dataio.load_dataset(
                str(tmp_path / "tra.csv"),
                str(tmp_path / "coords.csv"),
                labels_path=str(tmp_path / "labels.csv"),
            )


    def test_labels_within_rounding_of_an_integer_accepted(self, tmp_path, rng):
        ds = _toy_dataset(rng, with_labels=False)
        dataio.write_dataset(ds, str(tmp_path))
        (tmp_path / "labels.csv").write_text(
            "spot_id,label\n" + "".join(f"s{i},{3 + 1e-12!r}\n" for i in range(ds.n_spots))
        )
        loaded = dataio.load_dataset(
            str(tmp_path / "tra.csv"),
            str(tmp_path / "coords.csv"),
            labels_path=str(tmp_path / "labels.csv"),
        )
        assert loaded.labels.tolist() == [3] * ds.n_spots

class TestReport:
    def test_label_row_mismatch(self, tmp_path):
        with pytest.raises(RowCountMismatch):
            dataio.write_labels_csv(str(tmp_path / "labels.csv"), ["a", "b"], np.array([0]))

    def test_plot_scatter_svg(self, tmp_path, rng):
        path = tmp_path / "p.svg"
        dataio.plot_scatter(rng.normal(size=(11, 2)), np.arange(11) % 3, str(path))
        text = path.read_text()
        assert text.startswith("<svg") or "<svg" in text
        assert text.count("<circle") == 11
