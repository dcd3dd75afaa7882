"""Kernel specifications — the JIT's cache key.

The paper hashes the keyword arguments of a dispatched operation (operand
dtypes and operator names) to identify the compiled module that can run
it; :class:`KernelSpec` is that object made explicit, with a canonical
string form, a stable content hash, and the C++ ``-D`` define list used
by the C++ backend (and echoed in the generated Python modules' headers).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

from ..types import cxx_name, dtype_token, normalize_dtype

__all__ = ["KernelSpec", "CODEGEN_VERSION"]

#: bumped whenever generated-code layout changes, so stale disk-cache
#: entries from older library versions can never be loaded.
CODEGEN_VERSION = 18


#: ``KernelSpec.make`` arguments -> the spec they built: every dispatch asks
#: for its spec, and only the same frozen instance keeps its memoised key forms
_MADE: dict[tuple, "KernelSpec"] = {}


def _canon(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if value is None:
        return "none"
    return str(value)


@dataclass(frozen=True)
class KernelSpec:
    """Immutable description of one compilable kernel variant.

    ``func`` names the GraphBLAS operation (``mxv``, ``ewise_add_vec``,
    ...); ``params`` holds everything that changes the generated code:
    dtype tokens, operator names, and descriptor flags.  Runtime *data*
    (index arrays, bound scalar constants, the mask's contents) is never
    part of a spec — it is passed to the compiled kernel at call time,
    exactly as in GBTL where functor state is a runtime value.
    """

    func: str
    params: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    @classmethod
    def make(cls, func: str, **params) -> "KernelSpec":
        raw = (CODEGEN_VERSION, func, tuple(params.items()))  # the key embeds all three
        try:
            return _MADE[raw]
        except (KeyError, TypeError) as miss:
            spec = cls(func, tuple(sorted((k, _canon(v)) for k, v in params.items())))
            # TypeError: an unhashable argument — built, not remembered
            return _MADE.setdefault(raw, spec) if type(miss) is KeyError else spec

    def get(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.params:
            if k == key:
                return v
        return default

    def flag(self, key: str) -> bool:
        return self.get(key) == "1"

    def unmerged(self) -> bool:
        """No mask and no accumulator: the write-back is ``C<> = T`` —
        all of ``T`` is stored and nothing of ``C`` survives (the
        complement and replace flags have nothing to act on)."""
        return self.get("mask") == "none" and self.get("accum", "none") == "none"

    # the three key forms are read several times per cache lookup (memory
    # key, health key, artifact name, trace args); each is computed once
    # per instance — the dataclass is frozen, so they cannot go stale
    @cached_property
    def key(self) -> str:
        """Canonical human-readable cache key."""
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"v{CODEGEN_VERSION}:{self.func}({inner})"

    @cached_property
    def key_hash(self) -> str:
        """Stable 16-hex-digit content hash (the module file stem)."""
        return hashlib.sha256(self.key.encode()).hexdigest()[:16]

    @cached_property
    def module_stem(self) -> str:
        return f"pygb_{self.func}_{self.key_hash}"

    def dtype(self, key: str):
        """A dtype-valued parameter as a NumPy dtype."""
        tok = self.get(key)
        if tok is None or tok == "none":
            return None
        return normalize_dtype(tok)

    def cxx_defines(self) -> list[str]:
        """``-DKEY=value`` list for the C++ binding translation unit —
        the direct analog of the paper's
        ``g++ ... -DA_TYPE=int64_t -DADD_BINOP=Plus``."""
        defines = [f"-DPYGB_FUNC_{self.func.upper()}"]
        for k, v in self.params:
            ku = k.upper()
            if ku.endswith("_DTYPE") or ku in ("A", "B", "C", "U", "V", "W"):
                if v != "none":
                    defines.append(f"-D{ku}_TYPE={cxx_name(v)}")
            else:
                defines.append(f"-D{ku}={v}")
        return defines

    @staticmethod
    def dt(dtype) -> str:
        """Shorthand: dtype -> canonical token for spec params."""
        return dtype_token(dtype)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.key
