"""The check record: one checked identity, and how records fold.

Every check function returns :class:`Check` records, and every report
serializes them with :meth:`Check.to_json`.  A record unpacks as
``rec_id, ok, witness``; ``ok`` is True (pass), False (fail) or None
(skip, and the witness is then the note saying why).
"""

import collections


class Check(collections.namedtuple("Check", "id ok witness",
                                    defaults=(None,))):
    __slots__ = ()

    @property
    def status(self):
        return "pass" if self.ok else ("skip" if self.ok is None else "fail")

    def to_json(self):
        """The report record: id, anchor and status, plus the witness's
        repr on a fail or the note on a skip."""
        status = self.status
        out = {"id": self.id, "anchor": self.id, "status": status}
        if self.witness is not None:
            if status == "fail":
                out["witness"] = witness_repr(self.witness)
            elif status == "skip":
                out["note"] = str(self.witness)
        return out

    def __repr__(self):
        # a plain tuple, so a witness that lists records reads as before
        return repr(tuple(self))


def witness_repr(witness):
    """repr(witness), or a note when it holds an int too long to print."""
    try:
        return repr(witness)
    except ValueError:
        return "<a %s too long to print>" % type(witness).__name__


def prefixed(prefix, checks):
    """The records with `prefix` put before each id."""
    return [c._replace(id=prefix + c.id) for c in checks]


def fold(statuses):
    """fail if any status is fail, else pass if any is pass, else skip:
    a group that compared no identity never passes."""
    seen = set(statuses)
    return "fail" if "fail" in seen else ("pass" if "pass" in seen
                                          else "skip")


def compare(rec_id, lhs, rhs):
    """Compare two operators exactly, by their stored forms; only a fail
    forms the difference, whose first nonzero entry is the witness (and
    operators of different shapes fail to subtract)."""
    if lhs == rhs:
        return Check(rec_id, True)
    return Check(rec_id, False, (lhs - rhs).first_nonzero())
