"""Exception hierarchy.

Two branches matter to callers: ``InputError`` covers bad arguments, bad
files, and unsupported identifiers (CLI exit code 2), while ``ContractError``
covers violated data contracts such as decreasing counters or misaligned
windows (CLI exit code 3).
"""


class RegwaveError(Exception):
    pass


class InputError(RegwaveError):
    pass


class ContractError(RegwaveError):
    pass


class UnknownFamilyError(InputError):
    def __init__(self, family: str):
        super().__init__(f"unsupported wavelet family: {family!r}")
        self.family = family


class LengthError(InputError):
    pass


class PolicyError(InputError):
    pass


class InsufficientDataError(InputError):
    pass


class DataError(InputError):
    pass


class UndefinedMetricError(InputError):
    pass


class UnknownPortError(InputError):
    pass


class ParseError(InputError):
    """Malformed scenario or data file; carries the offending line number."""

    def __init__(self, message: str, path: str = "", line: int = 0):
        if path:
            where = f"{path}:{line}: " if line else f"{path}: "
        else:
            where = f"line {line}: " if line else ""
        super().__init__(where + message)
        self.path = path
        self.line = line

    @classmethod
    def not_utf8(cls, exc: UnicodeDecodeError, path) -> "ParseError":
        """Refusal of a file whose bytes, read whole, do not decode as UTF-8;
        names the line of the first bad byte."""
        line = exc.object.count(b"\n", 0, exc.start) + 1
        return cls(f"not UTF-8 text: byte {exc.object[exc.start]:#04x}", str(path), line)


class MonotonicityError(ContractError):
    pass


class AlignmentError(ContractError):
    pass
