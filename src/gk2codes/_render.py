"""The CLI's payload renderer: JSON as ``json.dumps(indent=2)`` writes it, and md.

A payload is a small dict of one command's results.  Its csv form is a
two-column table, written by the table writer (``_table_writer``), which is
imported only for it.  json is imported only by _json_str and _dumps, for a
value they do not write themselves.
"""

SCHEMA_VERSION = 1


def _head(args):
    """The first keys of every payload and table meta: the command, q, n and,
    when the command line has one, the orbit."""
    head = {"command": args.command, "q": args.q, "n": args.n}
    if hasattr(args, "orbit"):
        head["orbit"] = args.orbit
    return head


def _json_str(s):
    """The JSON string literal of s, as ``json.dumps`` writes it (ASCII only)."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    import json

    return json.encoder.encode_basestring_ascii(s)


def _json(obj, indent):
    """``json.dumps(obj, indent=2)`` at a depth whose line break is indent,
    for dicts with str keys, lists, tuples, strs, ints, bools and None;
    TypeError for any other value."""
    kind = type(obj)
    if kind is str:
        return _json_str(obj)
    if kind is int:
        return "%d" % obj
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    inner = indent + "  "
    if kind is dict and all(type(k) is str for k in obj):
        items, ends = [_json_str(k) + ": " + _json(v, inner) for k, v in obj.items()], "{}"
    elif kind is list or kind is tuple:
        items, ends = [_json(v, inner) for v in obj], "[]"
    else:
        raise TypeError(f"{kind.__name__} is left to json")
    if not items:
        return ends
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1]


def _dumps(obj):
    """Exactly ``json.dumps(obj, indent=2)``; json is imported only for a
    value that _json leaves to it."""
    try:
        return _json(obj, "\n")
    except TypeError:
        import json

        return json.dumps(obj, indent=2)


def _payload(fmt, payload):
    """Writer of a payload: json, a key/value table (values as csv.writer writes them), or md."""
    if fmt == "json":
        return _text(_dumps({"schema": SCHEMA_VERSION, **payload}) + "\n")
    flat = _flatten(payload)
    if fmt == "csv":  # every cell rendered here, so a value that fails fails before a write
        from ._table_writer import _table

        keys, values = [k for k, _ in flat], ["" if v is None else str(v) for _, v in flat]
        return _table(fmt, {}, ["key", "value"], [(len(flat), [keys, values])],
                      text=("key", "value"))
    return _text("\n".join(f"- **{k}**: {v}" for k, v in flat) + "\n")


def _text(text):
    """Writer of a payload already rendered to one (small) string."""
    return lambda stream: stream.write(text)


def _flatten(payload, prefix=""):
    out = []
    for k, v in payload.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.extend(_flatten(v, key + "."))
        elif isinstance(v, (list, tuple)):
            out.append((key, " ".join(str(x) for x in v)))
        else:
            out.append((key, v))
    return out
