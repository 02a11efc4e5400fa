"""Shared low-level utilities: atomic file writes and content digests.

Two disciplines live here because more than one subsystem depends on
them being *exactly* the same:

* **Atomic writes** — every persistent artefact (the eval cache's pickle
  entries and digest sidecars, the binaries, schedules and JSON reports
  the CLI writes)
  is written to a uniquely-named temp file in the target directory and
  renamed into place with ``os.replace``.  The temp name
  carries the writer's pid and a uuid so concurrent workers producing
  the same artefact can never rename each other's half-written file into
  place; the rename makes readers see either the old bytes or the new
  bytes, never a torn file.

* **Image digests** — the content identity of a compiled binary is
  ``sha256(image.serialize())``.  The eval cache keys by this one
  function and the CLI entry points print it, so both name a binary the
  same way.
"""

from __future__ import annotations

import hashlib
import os
import uuid


# -- atomic writes -----------------------------------------------------------


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (unique temp + ``os.replace``)."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode())


# -- content digests ---------------------------------------------------------


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def image_digest(image) -> str:
    """The content identity of one compiled binary (sha256 of its bytes)."""
    return sha256_hex(image.serialize())


def is_digest(text: str) -> bool:
    """True for a well-formed sha256 hex digest (the sidecar validity check)."""
    return len(text) == 64 and all(c in "0123456789abcdef" for c in text)


def read_digest_file(path: str) -> str | None:
    """A digest sidecar's contents, or ``None`` if missing/corrupt."""
    try:
        with open(path, "r") as fh:
            digest = fh.read().strip()
    except (OSError, UnicodeDecodeError):
        return None
    return digest if is_digest(digest) else None


def write_digest_file(path: str, digest: str) -> None:
    """Persist a digest sidecar atomically (safe under concurrent writers)."""
    atomic_write_text(path, digest)


# Raw-bytes sha256 -> image digest, shared by every caller in this process.
_DIGEST_MEMO: dict[str, str] = {}


def cached_image_digest(raw: bytes) -> str:
    """Image digest for serialised binary bytes, memoised per process.

    JELF serialisation round-trips exactly, so the raw bytes identify the
    image; the memo still stores the canonical ``serialize()`` digest so a
    non-canonical file cannot alias it.  ``perfbench`` set-up calls this.
    """
    tag = sha256_hex(raw)
    digest = _DIGEST_MEMO.get(tag)
    if digest is None:
        from repro.jbin.image import JELF

        digest = _DIGEST_MEMO[tag] = image_digest(JELF.deserialize(raw))
    return digest
