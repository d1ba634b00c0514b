from __future__ import annotations

import ipaddress

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specload.errors import MalformedUrl
from specload.urls import (
    _CANONICAL,
    _MULTI_LABEL_SUFFIXES,
    _normalize_split,
    host_of,
    normalize_url,
    website_key,
)


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("HTTP://WWW.ESPN.com/Page?Q=1#frag", "http://www.espn.com/Page?Q=1"),
        ("http://espn.com:80/x", "http://espn.com/x"),
        ("https://espn.com:443/x", "https://espn.com/x"),
        ("https://espn.com:8443/x", "https://espn.com:8443/x"),
        ("http://espn.com", "http://espn.com"),
        ("  http://espn.com/a b  ", "http://espn.com/a b"),
        ("http://user:pw@espn.com/x", "http://espn.com/x"),
        ("http://[2001:DB8::A]:80/x", "http://[2001:db8::a]/x"),
        ("https://[::1]:8443/", "https://[::1]:8443/"),
    ],
)
def test_normalize(raw, expected):
    assert normalize_url(raw) == expected


@pytest.mark.parametrize("bad", ["", "   ", "espn.com/x", "http://", "//espn.com/x", "mailto:"])
def test_normalize_rejects(bad):
    with pytest.raises(MalformedUrl):
        normalize_url(bad)


def test_query_is_preserved_verbatim():
    assert normalize_url("http://a.com/p?b=2&a=1") == "http://a.com/p?b=2&a=1"


@given(
    st.sampled_from(["http", "https"]),
    st.from_regex(r"[a-z][a-z0-9]{0,10}(\.[a-z][a-z0-9]{0,8}){0,3}", fullmatch=True),
    st.from_regex(r"(/[A-Za-z0-9._~-]{0,12}){0,4}", fullmatch=True),
)
def test_normalize_is_idempotent(scheme, host, path):
    url = f"{scheme}://{host}{path}"
    once = normalize_url(url)
    assert normalize_url(once) == once


@pytest.mark.parametrize(
    "url,key",
    [
        ("http://www.espn.com/nba", "espn.com"),
        ("http://m.espn.com/", "espn.com"),
        ("http://espn.com/", "espn.com"),
        ("http://news.bbc.co.uk/", "bbc.co.uk"),
        ("http://a.b.shop.com.au/", "shop.com.au"),
        ("http://deep.cdn.static.example.org/", "example.org"),
        ("http://localhost:8080/x", "localhost"),
        ("http://127.0.0.1:8099/page", "127.0.0.1"),
    ],
)
def test_website_key(url, key):
    assert website_key(url) == key


def _website_key_via_ipaddress(url: str) -> str:
    """``website_key`` with every host going through ``ip_address``."""
    host = host_of(normalize_url(url))
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


@pytest.mark.parametrize(
    "url",
    [
        "http://10.0.0.1/x",  # IPv4
        "http://192.168.1.254:8080/",
        "http://1.2.3/",  # digits, not an address
        "http://[::1]/x",  # bracketed IPv6
        "http://[2001:db8::a]:8443/",
        "http://[::ffff:1.2.3.4]/",
        "http://www.example.com./",  # trailing dot
        "http://example.com./x",
        "http://localhost/",  # single label
        "http://intranet1/",
        "http://news.bbc.co.uk/",  # multi-label suffix
        "http://a.b.shop.com.au/",
        "http://co.uk/",
        "http://deep.cdn.static.example.org/",
        "http://cdn1.example.net2/",
        "http://0x7f.example/",
    ],
)
def test_website_key_fast_path_agrees_with_ipaddress(url):
    assert website_key(url) == _website_key_via_ipaddress(url)


def test_host_of_strips_port():
    assert host_of("http://a.com:8080/x") == "a.com"


@pytest.mark.parametrize("bad", ["http://[::1/x", "http://a.com]/"])
def test_host_of_rejects_what_website_key_rejects(bad):
    # urlsplit's own ValueError ("Invalid IPv6 URL") is a MalformedUrl too.
    for fn in (host_of, website_key):
        with pytest.raises(MalformedUrl):
            fn(bad)


# --- fast path against urlsplit ------------------------------------------

_TRICKY = "aZ09.-:/?#@[]% \t\n\x00\x7fé&=~\\"
_ascii = st.characters(min_codepoint=0x20, max_codepoint=0x7E)
_url_like = st.one_of(
    # Mostly canonical: the fast path's side of its boundary.
    st.builds(
        "{}{}{}{}{}".format,
        st.sampled_from(["http://", "https://"]),
        st.from_regex(r"[a-z0-9.-]{1,12}", fullmatch=True),
        st.sampled_from(["", "/", "?", "//"]),
        st.text(alphabet=_ascii, max_size=12),
        st.sampled_from(["", "", "?", "#", " ", "\t"]),
    ),
    # Near misses: case, userinfo, ports, stray characters.
    st.builds(
        "{}{}{}{}{}{}".format,
        st.sampled_from(["http://", "https://", "HTTP://", "Https://", "ftp://", "http:", ""]),
        st.sampled_from(["", "user@", "u:p@"]),
        st.one_of(
            st.from_regex(r"[a-z0-9.-]{0,12}", fullmatch=True),
            st.text(alphabet="aZ09.-[]%é ", max_size=8),
        ),
        st.sampled_from(["", ":", ":0", ":80", ":443", ":8080", ":0080", ":99999", ":x"]),
        st.sampled_from(["", "/", "?", "#", "//"]),
        st.text(alphabet=_TRICKY, max_size=12),
    ),
    st.text(max_size=30),
)


def _outcome(fn, raw):
    try:
        return fn(raw)
    except MalformedUrl:
        return MalformedUrl


@settings(max_examples=1000, deadline=None)
@given(_url_like)
@example("http://a.com?")
@example("http://a.com/x?")
@example("http://a.com/x\n")
@example("http://a.com/x ")
@example("http://a.com/#")
@example("http://a.com:80/x")
@example("http://u@a.com/x")
@example("http://A.com/x")
@example("http://a.com/[x]%41?a?b")
@example("http://a.com")
def test_fast_path_agrees_with_urlsplit(raw):
    slow = _outcome(_normalize_split, raw)
    if _CANONICAL.fullmatch(raw):
        assert slow == raw
    assert _outcome(normalize_url, raw) == slow
