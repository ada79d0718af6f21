from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flunowcast import ingest
from flunowcast.errors import (
    DataError,
    GapInCases,
    MalformedHeader,
    MalformedRow,
    NegativeCount,
    NonContiguousAfterFill,
    ValueOutOfRange,
)
from flunowcast.ingest import (
    parse_cases_csv,
    parse_trends_csv,
    write_cases_csv,
    write_trends_csv,
)
from flunowcast.timeseries import WeekStamp

from .oracles import isocalendar_walk


class TestParseTrends:
    def test_two_query_file(self):
        data = b"week,flu,fever\n2009-W01,10,20\n2009-W02,30,40\n2009-W03,50,60\n"
        panel = parse_trends_csv(data)
        assert panel.labels == ("flu", "fever")
        assert len(panel.matrix) == 3
        assert panel.matrix[:, 1].tolist() == [20.0, 40.0, 60.0]

    def test_zero_fill_restores_omitted_week(self):
        data = b"week,flu\n2009-W01,10\n2009-W04,40\n"
        panel = parse_trends_csv(data)
        assert len(panel.matrix) == 4
        assert panel.matrix[:, 0].tolist() == [10.0, 0.0, 0.0, 40.0]

    def test_value_out_of_range(self):
        with pytest.raises(ValueOutOfRange):
            parse_trends_csv(b"week,flu\n2009-W01,101\n")
        with pytest.raises(ValueOutOfRange):
            parse_trends_csv(b"week,flu\n2009-W01,-1\n")

    def test_malformed_header(self):
        with pytest.raises(MalformedHeader):
            parse_trends_csv(b"date,flu\n2009-W01,10\n")
        with pytest.raises(MalformedHeader):
            parse_trends_csv(b"week,flu,flu\n2009-W01,1,2\n")

    def test_out_of_order_weeks_rejected(self):
        with pytest.raises(NonContiguousAfterFill):
            parse_trends_csv(b"week,flu\n2009-W05,1\n2009-W02,2\n")

    def test_round_trip_identity(self):
        data = b"week,flu,fever\n2009-W51,0,3\n2009-W52,10,0\n2009-W53,100,50\n2010-W01,7,7\n"
        panel = parse_trends_csv(data)
        assert write_trends_csv(panel) == data
        assert parse_trends_csv(write_trends_csv(panel)) == panel


class TestParseCases:
    def test_study_span_length(self):
        # 2009-W01 .. 2013-W52 inclusive is 261 contiguous weeks
        start = WeekStamp(2009, 1)
        lines = ["week,cases"]
        lines += [f"{start.add(i)},{i % 40}" for i in range(261)]
        series = parse_cases_csv(("\n".join(lines) + "\n").encode())
        assert len(series) == 261
        assert series.start == start
        assert series.start.add(len(series) - 1) == WeekStamp(2013, 52)

    def test_gap_is_error(self):
        with pytest.raises(GapInCases):
            parse_cases_csv(b"week,cases\n2009-W01,5\n2009-W03,6\n")

    def test_negative_count(self):
        with pytest.raises(NegativeCount):
            parse_cases_csv(b"week,cases\n2009-W01,-3\n")

    def test_counts_are_bounded_at_2_to_the_53(self):
        assert parse_cases_csv(b"week,cases\n2009-W01,9007199254740992\n").values[0] == 2 ** 53
        with pytest.raises(MalformedRow, match="^line 3: case count above 2"):
            parse_cases_csv(b"week,cases\n2009-W01,1\n2009-W02,9007199254740993\n")

    def test_round_trip_identity(self):
        data = b"week,cases\n2009-W52,5\n2009-W53,0\n2010-W01,12\n"
        series = parse_cases_csv(data)
        assert write_cases_csv(series) == data
        assert parse_cases_csv(write_cases_csv(series)) == series


@pytest.mark.parametrize("parser,header", [
    (parse_trends_csv, "week,flu"),
    (parse_cases_csv, "week,cases"),
])
@pytest.mark.parametrize("cell", ["²", "١٢", "+5", "1_0"])
def test_only_ascii_digits_parse_as_integers(parser, header, cell):
    # str.isdigit accepts '²' (which int() then rejects) and Arabic-Indic
    # digits (which int() accepts); int() alone accepts '+5' and '1_0'
    with pytest.raises(MalformedRow):
        parser(f"{header}\n2015-W01,{cell}\n".encode("utf-8"))


@pytest.mark.parametrize("parser,header", [
    (parse_trends_csv, "week,flu"),
    (parse_cases_csv, "week,cases"),
])
@pytest.mark.parametrize("sign", ["", "-"])
def test_an_integer_too_long_for_int_is_a_malformed_row(parser, header, sign):
    # int() refuses strings of more than 4,300 digits with a bare ValueError
    data = f"{header}\n2015-W01,1\n2015-W02,{sign}{'9' * 5000}\n".encode("utf-8")
    with pytest.raises(MalformedRow, match="^line 3: integer of 5000 digits is too long$"):
        parser(data)


@pytest.mark.parametrize("parser,header", [
    (parse_trends_csv, "week,flu"),
    (parse_cases_csv, "week,cases"),
])
def test_first_bad_line_in_file_order_wins(parser, header):
    # line 3 repeats a week, line 5 has a malformed cell
    with pytest.raises(NonContiguousAfterFill, match="week 2009-W01 "):
        parser(f"{header}\n2009-W01,1\n2009-W01,2\n2009-W02,3\n2009-W03,x\n".encode())
    # line 3 has a malformed cell, line 5 repeats a week
    with pytest.raises(MalformedRow, match="line 3: "):
        parser(f"{header}\n2009-W01,1\n2009-W02,x\n2009-W03,3\n2009-W03,4\n".encode())


# ISO years 2009, 2015, 2020 and 2026 have a week 53
@st.composite
def gapped_panels(draw):
    """(start, rows of the full weekly range, whether the file lists each row)."""
    start = WeekStamp(draw(st.sampled_from([2009, 2015, 2020, 2026])), draw(st.integers(47, 53)))
    n, width = draw(st.integers(8, 14)), draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(0, 100), min_size=width, max_size=width),
                         min_size=n, max_size=n))
    listed = [True] + draw(st.lists(st.booleans(), min_size=n - 2, max_size=n - 2)) + [True]
    return start, [r if keep else [0] * width for r, keep in zip(rows, listed)], listed


class TestWriterRoundTrip:
    @given(gapped_panels())
    @settings(max_examples=200)
    def test_gapped_panels_across_week_53(self, case):
        start, rows, listed = case
        weeks = ["%04d-W%02d" % w for w in isocalendar_walk(*map(int, str(start).split("-W")),
                                                           len(rows))]
        header = "week," + ",".join(f"q{j}" for j in range(len(rows[0])))
        lines = [f"{w}," + ",".join(map(str, r)) for w, r in zip(weeks, rows)]
        gapped = [line for line, keep in zip(lines, listed) if keep]
        panel = parse_trends_csv(("\n".join([header] + gapped) + "\n").encode())
        full = ("\n".join([header] + lines) + "\n").encode()
        assert write_trends_csv(panel) == full
        assert parse_trends_csv(full) == panel
        cases = parse_cases_csv(("week,cases\n" + "".join(
            f"{w},{r[0]}\n" for w, r in zip(weeks, rows))).encode())
        assert parse_cases_csv(write_cases_csv(cases)) == cases


class TestFuzz:
    @given(st.binary(max_size=300))
    @settings(max_examples=300)
    def test_parsers_fail_structurally_never_crash(self, blob):
        for parser in (parse_trends_csv, parse_cases_csv):
            try:
                parser(blob)
            except DataError:
                pass


VALID_PANEL = "week,flu,fever\n2015-W51,10,20\n2015-W52,30,40\n2015-W53,100,0\n2016-W01,7,7\n"
VALID_CASES = "week,cases\n2015-W51,5\n2015-W52,0\n2015-W53,12\n2016-W01,3\n"

ascii_counts = st.sampled_from(["0", "5", "12", "100", "101"])
# non-ASCII digits, signs, padding and other number forms
integer_cells = st.one_of(
    st.text(st.characters(categories=["Nd", "No"]), min_size=1, max_size=3),
    st.sampled_from(["²", "١٢", "３", "⑤", "½", "1e2", "1.0", "0x1", "1_0", "", "-", "+"]),
    st.builds(str.__add__, st.sampled_from(["+", "-", "--", "+-", "-+"]), ascii_counts),
    st.builds(lambda pad, n, tail: pad + n + tail, st.sampled_from([" ", "\t", "\u00a0", ""]),
              ascii_counts, st.sampled_from([" ", "\t", "\n", ","])),
)
# 2015 has an ISO week 53, 2016 does not
week_cells = st.sampled_from([
    "2016-W53", "2015-W54", "2015-W00", " 2015-W52", "2015-W52 ", "2015-w52", "2015-W5",
    "+2015-W52", "２０１５-W52", "2015-W٥٢", "2015-W52-1", "",
])


@st.composite
def mutated_csv(draw, text, cells=integer_cells,
                ops=("value", "week", "duplicate", "drop", "swap")):
    """A valid CSV with some cells replaced and some rows duplicated, dropped or swapped."""
    rows = [line.split(",") for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(1, len(rows) - 1))
        op = draw(st.sampled_from(ops))
        if op == "value":
            rows[i][draw(st.integers(1, len(rows[i]) - 1))] = draw(cells)
        elif op == "week":
            rows[i][0] = draw(week_cells)
        elif op == "duplicate":
            rows.insert(i, list(rows[i]))
        elif op == "drop" and len(rows) > 2:
            del rows[i]
        elif op == "swap":
            j = draw(st.integers(1, len(rows) - 1))
            rows[i], rows[j] = rows[j], rows[i]
    return ("\n".join(",".join(row) for row in rows) + "\n").encode("utf-8")


class TestGrammarFuzz:
    @pytest.mark.parametrize("parser,text", [
        (parse_trends_csv, VALID_PANEL),
        (parse_cases_csv, VALID_CASES),
    ])
    def test_valid_inputs_parse(self, parser, text):
        parser(text.encode("utf-8"))

    @given(panel=mutated_csv(VALID_PANEL), cases=mutated_csv(VALID_CASES))
    @settings(max_examples=500)
    def test_cell_mutations_raise_only_data_errors(self, panel, cases):
        for parser, blob in ((parse_trends_csv, panel), (parse_cases_csv, cases)):
            try:
                parser(blob)
            except DataError:
                pass


# cells the whole-file path reads (signed zeros, leading zeros), checks
# (out of range, negative) or leaves to the row-by-row reader (16+ digits)
array_cells = st.one_of(st.sampled_from(
    ["-0", "-00", "007", "0100", "0101", "101", "-1", "250", "0" * 16 + "42", "9" * 16]),
    integer_cells)
# mostly cell changes, so that most files stay valid elsewhere
array_ops = ("value", "value", "value", "week", "duplicate", "drop", "swap")


def parsed(parser, blob):
    """What `parser` makes of `blob`: its fields, arrays as shape and raw
    bytes (so -0.0 differs from 0.0), or the error's type and message."""
    try:
        result = parser(blob)
    except DataError as exc:
        return type(exc), str(exc)
    return [(v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
            for v in vars(result).values()]


def row_by_row(parser, blob):
    """parsed() with the whole-file path always missing."""
    with mock.patch.object(ingest, "_table", lambda lines, width: ([], np.empty((0, width - 1)))):
        return parsed(parser, blob)


class TestWholeFilePath:
    @pytest.mark.parametrize("parser,header,cells,weeks", [
        (parse_trends_csv, "week,flu", ["-0", "007", "0100"], ["2015-W53", "2016-W01", "2016-W03"]),
        (parse_cases_csv, "week,cases", ["-0", "007", "0" * 15], ["2015-W52", "2015-W53", "2016-W01"]),
        # the widest cells the row grammar admits, and -0 between others
        (parse_cases_csv, "week,cases", ["9" * 15, "0" * 14 + "1", "-0"],
         ["2015-W52", "2015-W53", "2016-W01"]),
        (parse_trends_csv, "week,flu", ["0" * 14 + "1", "-0", "100"],
         ["2015-W52", "2015-W53", "2016-W01"]),
    ])
    def test_reads_what_the_row_reader_reads(self, parser, header, cells, weeks):
        text = "".join(f"{w},{c}\n" for w, c in zip(weeks, cells))
        lines = [header] + text.splitlines()
        rows = ingest._table(lines, 2)[1]
        assert rows.tolist() == [[float(int(c))] for c in cells]
        assert not np.signbit(rows).any()  # -0 reads as 0
        blob = f"{header}\n{text}".encode()
        assert parsed(parser, blob) == row_by_row(parser, blob)

    @pytest.mark.parametrize("cell", ["+5", "١٢", " 5", "0" * 16, "1.0", ""])
    def test_leaves_other_cells_to_the_row_reader(self, cell):
        assert len(ingest._table(["week,flu", "2015-W01,1", f"2015-W02,{cell}"], 2)[1]) == 0

    @pytest.mark.parametrize("parser,text", [
        (parse_trends_csv, "week,flu\n2015-W01,7\n2015-W02,101\n"),
        (parse_trends_csv, "week,flu\n2015-W01,7\n2015-W02,-1\n"),
        (parse_trends_csv, "week,flu\n2015-W02,7\n2015-W02,8\n"),
        (parse_trends_csv, "week,flu\n2015-W03,7\n2015-W02,8\n"),
        (parse_cases_csv, "week,cases\n2015-W01,7\n2015-W02,-1\n"),
        (parse_cases_csv, "week,cases\n2015-W01,7\n2015-W03,8\n"),
        (parse_cases_csv, "week,cases\n2015-W02,7\n2015-W02,8\n"),
        (parse_cases_csv, "week,cases\n2015-W02,7\n2015-W01,8\n"),
    ])
    def test_a_failed_check_raises_as_the_row_reader_does(self, parser, text):
        with pytest.raises(DataError):
            parser(text.encode())
        assert parsed(parser, text.encode()) == row_by_row(parser, text.encode())

    def test_leaves_a_week_past_the_year_to_the_row_reader(self):
        assert len(ingest._table(["week,flu", "2015-W53,1", "2016-W53,2"], 2)[1]) == 0

    @given(panel=mutated_csv(VALID_PANEL, array_cells, array_ops),
           cases=mutated_csv(VALID_CASES, array_cells, array_ops))
    @settings(max_examples=500)
    def test_agrees_with_the_row_reader(self, panel, cases):
        for parser, blob in ((parse_trends_csv, panel), (parse_cases_csv, cases)):
            assert parsed(parser, blob) == row_by_row(parser, blob)
