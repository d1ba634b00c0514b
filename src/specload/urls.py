"""URL normalization and website grouping.

Resources are grouped into websites by registrable domain so that
``www.espn.com`` and ``m.espn.com`` land in the same per-website graph.
"""

from __future__ import annotations

import ipaddress
import re
from urllib.parse import urlsplit, urlunsplit

from .errors import MalformedUrl

_DEFAULT_PORTS = {"http": 80, "https": 443}

# Multi-label public suffixes where the registrable domain needs three
# labels.  A stand-in for a full public-suffix list; enough for the
# country-code domains that actually show up in traces here.
_MULTI_LABEL_SUFFIXES = {
    "co.uk",
    "com.au",
    "co.jp",
    "ac.uk",
    "com.br",
}


# Strings that are already canonical; see normalize_url.
_CANONICAL = re.compile(r'https?://[a-z0-9.-]+(?:[/?][!"$-~]*)?(?<!\?)')


def normalize_url(raw: str) -> str:
    """Return the canonical form of ``raw``.

    Lower-cases scheme and host, strips the fragment, and removes default
    ports.  Path and query are preserved verbatim.  Raises MalformedUrl
    when the input has no scheme or no host.

    Fast path: a string that wholly matches ``_CANONICAL`` is returned
    as is.  That is ``http://`` or ``https://``, a non-empty host of
    ``[a-z0-9.-]`` (so no port and no userinfo), then nothing or a
    ``/`` or ``?`` followed by printable ASCII other than space and
    ``#``, with no ``?`` as the last character.  Every other input goes
    through ``urlsplit`` (``_normalize_split``), which stays the
    definition; ``tests/test_urls.py`` checks the two agree.
    """
    if isinstance(raw, str) and _CANONICAL.fullmatch(raw):
        return raw
    return _normalize_split(raw)


def _normalize_split(raw: str) -> str:
    if not isinstance(raw, str) or not raw.strip():
        raise MalformedUrl(f"not a URL: {raw!r}")
    try:
        parts = urlsplit(raw.strip())
    except ValueError as exc:
        raise MalformedUrl(f"not a URL: {raw!r} ({exc})") from exc
    if not parts.scheme or not parts.netloc:
        raise MalformedUrl(f"not an absolute URL: {raw!r}")
    scheme = parts.scheme.lower()
    try:
        host = parts.hostname
        port = parts.port
    except ValueError as exc:
        raise MalformedUrl(f"bad host in {raw!r} ({exc})") from exc
    if not host:
        raise MalformedUrl(f"no host in {raw!r}")
    # ``hostname`` drops an IPv6 literal's brackets; the URL needs them.
    netloc = f"[{host}]" if ":" in host else host
    if port is not None and port != _DEFAULT_PORTS.get(scheme):
        netloc = f"{netloc}:{port}"
    return urlunsplit((scheme, netloc, parts.path, parts.query, ""))


def host_of(url: str) -> str:
    """Lower-cased hostname of a normalized URL, without the port."""
    try:
        host = urlsplit(url).hostname
    except ValueError as exc:
        raise MalformedUrl(f"not a URL: {url!r} ({exc})") from exc
    if not host:
        raise MalformedUrl(f"no host in {url!r}")
    return host


def website_key(url: str) -> str:
    """Registrable-domain key that groups subdomains of one website.

    Normally the last two host labels ("www.espn.com" -> "espn.com");
    three labels when the two-label tail is a known multi-label public
    suffix ("news.bbc.co.uk" -> "bbc.co.uk").  IP literals and
    single-label hosts (e.g. "localhost") are returned whole.
    """
    host = host_of(normalize_url(url))
    # An IP literal ends in a digit (IPv4) or holds a ':' (IPv6), so a
    # host ending in a letter without a ':' skips the parse.
    if not ("a" <= host[-1] <= "z" and ":" not in host):
        try:
            ipaddress.ip_address(host)
            return host
        except ValueError:
            pass
    labels = host.split(".")
    if len(labels) <= 2:
        return host
    if ".".join(labels[-2:]) in _MULTI_LABEL_SUFFIXES:
        return ".".join(labels[-3:])
    return ".".join(labels[-2:])
