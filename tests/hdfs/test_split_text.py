"""A split's text without a line loop: count_split_lines reads its line
count off the stored bytes, split_fields splits every line at once."""

from hypothesis import given, settings, strategies as st

from repro.hdfs import (
    SimulatedHDFS,
    count_split_lines,
    read_split_lines,
    split_boundaries,
    split_fields,
)
from repro.obs.registry import collecting

_COUNTERS = ("hdfs.reads", "hdfs.bytes_read")


def _read_and_count(fs, offset, length):
    """``(lines, counters)`` of reading the split, and ``(count, counters)``
    of counting it."""
    with collecting() as registry:
        lines = read_split_lines(fs, "/f.txt", offset, length)
        read = [registry.counter(name) for name in _COUNTERS]
    with collecting() as registry:
        count = count_split_lines(fs, "/f.txt", offset, length)
        counted = [registry.counter(name) for name in _COUNTERS]
    return (len(lines), read), (count, counted)


# Files with empty lines, runs of newlines, a missing final newline and
# multi-byte characters (a split may start or end inside one).
_FILES = st.lists(
    st.sampled_from(["\n", "\n", "x", "yz", "é", "€", "POINT (1 2)", "\t"]), max_size=80
).map(lambda parts: "".join(parts).encode("utf-8"))

# Lines longer than a reader's 64 KiB fetch, so a split's skip and its
# read past the end take several chunks.
_LONG = 64 * 1024 + 5
_LONG_FILES = st.lists(
    st.sampled_from(["\n", "x", "é", "L" * _LONG, "M" * (3 * _LONG)]), max_size=12
).map(lambda parts: "".join(parts).encode("utf-8"))


class TestCountSplitLines:
    @settings(max_examples=300, deadline=None)
    @given(_FILES, st.integers(1, 40), st.integers(1, 9), st.data())
    def test_equals_the_read_splits_count(self, data, block_size, min_splits, draw):
        fs = SimulatedHDFS(block_size=block_size)
        fs.write("/f.txt", data)
        splits = split_boundaries(fs, "/f.txt", min_splits)
        # Any range, not only the file's own splits: past the end, empty,
        # negative lengths.
        splits.append(
            (draw.draw(st.integers(0, len(data) + 3)), draw.draw(st.integers(-2, len(data) + 3)))
        )
        for offset, length in splits:
            read, counted = _read_and_count(fs, offset, length)
            assert counted == read

    @settings(max_examples=60, deadline=None)
    @given(_LONG_FILES, st.integers(1, 12), st.integers(1, 40), st.booleans())
    def test_lines_longer_than_a_fetch(self, data, blocks, min_splits, newline_end):
        # Every split of a file, as many as the block size and the
        # requested partitions make; with or without a final newline.
        if newline_end and data and not data.endswith(b"\n"):
            data += b"\n"
        fs = SimulatedHDFS(block_size=max(1, len(data) // blocks))
        fs.write("/f.txt", data)
        for offset, length in split_boundaries(fs, "/f.txt", min_splits):
            read, counted = _read_and_count(fs, offset, length)
            assert counted == read

    def test_edges(self):
        fs = SimulatedHDFS(block_size=4)
        fs.write("/f.txt", b"ab\n\ncd")
        for split, want in [((0, 6), 3), ((0, 3), 1), ((3, 3), 2), ((4, 2), 1), ((5, 1), 0),
                            ((6, 1), 0), ((0, 0), 0)]:
            read, counted = _read_and_count(fs, *split)
            assert counted == read and counted[0] == want
        fs.write("/f.txt", b"")
        assert count_split_lines(fs, "/f.txt", 0, 4) == 0


class TestSplitFields:
    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from(["\t", ",", "|", " ", "é", "\n", "ab"]),
        st.integers(1, 4),
        st.data(),
    )
    def test_every_line_split_on_its_own(self, delimiter, width, data):
        # Lines of about ``width`` fields: a wrong arity in one line is
        # often made up by another, so only a per-line check tells.
        field = st.text(alphabet="ab,|é€ \n", max_size=3)
        arity = st.sampled_from([width, width, max(1, width - 1), width + 1])
        lines = data.draw(
            st.lists(arity.flatmap(lambda k: st.lists(field, min_size=k, max_size=k)), max_size=10)
            .map(lambda rows: [delimiter.join(fields) for fields in rows])
        )
        split = [line.split(delimiter) for line in lines]
        columns = split_fields(lines, delimiter, width)
        if len(delimiter) == 1 and all(len(fields) == width for fields in split):
            assert columns == [[fields[k] for fields in split] for k in range(width)]
        else:
            assert columns is None

    def test_arities_that_make_up_for_each_other(self):
        assert split_fields(["a\tb\tc", "d"], "\t", 2) is None
        assert split_fields(["a\tb", "c\td"], "\t", 2) == [["a", "c"], ["b", "d"]]
        assert split_fields([], "\t", 3) == [[], [], []]
        assert split_fields(["a\nb\tc", "d\te"], "\t", 2) == [["a\nb", "d"], ["c", "e"]]
