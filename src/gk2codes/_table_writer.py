"""The CLI's table writer: a table's rows as bytes, in blocks, to the stream's binary layer.

Only the table commands (gaps, fengrao-table, quantum-table) and the csv
form of a payload import it.
"""

from itertools import chain, islice, repeat

from ._render import SCHEMA_VERSION, _dumps, _json_str

_BLOCK_ROWS = 4096


def _table(fmt, meta, headers, runs, text=()):
    """Writer of one table, given its meta, its headers and its rows as runs.

    Each run is (row count, cells), with one entry per header: an iterable
    over the column's cells in the run, or one cell constant over the run.
    The cells are ints, but for the columns named in text, whose cells are
    strs (a constant None is "").  The bytes are those of a csv writer
    (minimal quoting, "\n" line ends), of ``json.dumps(indent=2)`` over
    ``{"schema", **meta, "rows": [one dict per row]}``, or of the Markdown
    lines.

    Each run has one bytes row template: its constants written in by the
    format's cell rule, %d for an int column and %s for the quoted, encoded
    cells of a text column.  Its rows go out in blocks of ``_BLOCK_ROWS``,
    one bytes ``%`` each, to the stream's binary layer.
    """

    def write(stream):
        encoding, errors = stream.encoding or "utf-8", stream.errors or "strict"
        out = _binary_writer(stream, encoding, errors)
        sep = tail = ""
        if fmt == "json":
            quote = _json_str
            keys = [f"      {quote(h)}: ".replace("%", "%%") for h in headers]
            head = _dumps({"schema": SCHEMA_VERSION, **meta, "rows": []}) + "\n"
            if any(count for count, _ in runs):
                head, sep, tail = head.removesuffix("[]\n}\n") + "[\n", ",\n", "\n  ]\n}\n"

            def line(slots):
                return "    {\n" + ",\n".join(map(str.__add__, keys, slots)) + "\n    }"
        elif fmt == "csv":
            def quote(cell):  # as csv.writer quotes: minimal, with "\n" line ends
                if "," in cell or '"' in cell or "\n" in cell or (not cell and len(headers) == 1):
                    return '"' + cell.replace('"', '""') + '"'
                return cell

            def line(slots):
                return ",".join(slots) + "\n"

            head = line(map(quote, headers))
        else:
            quote = str

            def line(slots):
                return "| " + " | ".join(slots) + " |\n"

            head = line(headers) + "|" + "---|" * len(headers) + "\n"
        out(head.encode(encoding, errors))
        sep = sep.encode()
        first = True  # no separator before the table's first row
        for count, cells in runs:
            slots, args = [], []
            for header, cell in zip(headers, cells):
                if cell is None or isinstance(cell, (int, str)):  # constant over the run
                    cell = quote(cell or "") if header in text else "%d" % cell
                    slots.append(cell.replace("%", "%%"))
                elif header in text:
                    slots.append("%s")
                    args.append(map(str.encode, map(quote, cell), repeat(encoding),
                                    repeat(errors)))
                else:
                    slots.append("%d")
                    args.append(cell)
            template = sep + line(slots).encode(encoding, errors)
            full = template * min(count, _BLOCK_ROWS)
            cells = chain.from_iterable(zip(*args))
            for i in range(0, count, _BLOCK_ROWS):
                n = min(_BLOCK_ROWS, count - i)
                block = template * n if i and n < _BLOCK_ROWS else full  # a short last block
                if first:
                    block, first = block[len(sep):], False
                out(block % tuple(islice(cells, n * len(args))))
        out(tail.encode())

    return write


def _binary_writer(stream, encoding, errors):
    """A function that writes bytes whole, after all the text stream holds.

    The bytes go to the stream's binary layer, which under PYTHONUNBUFFERED
    is raw and may take part of a write; a stream with none (io.StringIO)
    gets them decoded.
    """
    raw = getattr(stream, "buffer", None)
    if raw is None:
        return lambda data: stream.write(data.decode(encoding, errors))
    stream.flush()

    def write(data):
        view = memoryview(data)
        while view:
            view = view[raw.write(view):]

    return write
