"""Anchor-href extraction with net/html-compatible document order.

The reference parses pages with goquery on top of Go's x/net/html HTML5
parser and selects ``a[href]`` in depth-first document order
(/root/reference/internal/parser/parser.go:120-208). Wholesale HTML5 tree
building is overkill for that one query, but two HTML5 behaviors are
observable in the reference's goldens and must be replicated:

1. *Adoption agency cloning*: an unclosed ``<a>`` interrupted by a block
   element and a following ``<a>`` is cloned into the block, so its href
   appears twice (fixtures_test.go "Malformed HTML": /page2 expected twice).
2. *Implied close*: ``<a>`` start while an ``<a>`` is active closes the old
   one (no duplicate emitted when no block intervenes).

This module implements a focused subset of the HTML5 "in body" insertion
mode over Python's stdlib tokenizer: a stack of open elements plus an active
formatting list, with reconstruction and a simplified adoption agency that
emits hrefs at element-insertion time (insertion order == document order for
these constructs). Deviation from the full spec, chosen to match the golden
corpus: reconstruction is triggered by non-whitespace text only.

No third-party HTML libraries are available in this environment; this is
also dramatically faster than full tree building for the one query we need.

Flat-anchor fast path. Most pages never exercise either behavior, and on
those the builder's output is fixed by the tags alone. ``iter_hrefs`` and
``iter_anchors`` therefore first run ``_flat_scan``: one compiled regex,
matched token run by token run, that answers directly when the page
carries the *flat-anchor certificate*: every ``<a …>`` start tag is either
self-closing in html.parser's sense or has ``</a>`` as its next tag token.
An ``a`` then leaves the active formatting list at its own ``</a>``, so
the builder can neither clone nor reconstruct one, and its output is each
``<a>``'s first href in document order (with text: the unescaped data
between ``<a>`` and ``</a>``, one chunk per stretch between comments).
The scan tokenizes a strict subset of html.parser's grammar and matches
the stdlib where they overlap: tag and attribute names lowercased, the
first href wins, quotes stripped and non-empty values unescaped, a bare
``href`` gives ``""``, and a bare value swallows a trailing ``/`` (``<a
href=u/>`` is a start tag, not self-closing). It declines (returns None,
and the builder runs on the stdlib tokenizer) on any page with

- a ``<`` that starts no well-formed start tag, end tag, ``<!--…-->``
  comment or ``<!doctype …>``, including ``<?``, ``<!x`` and
  ``<![CDATA[``;
- a raw-text start tag (``script``, ``style``: the stdlib's
  ``CDATA_CONTENT_ELEMENTS``);
- an unbalanced quote, or a separator inside a tag other than
  ``[ \t\n\r\f]`` (html.parser reads ``<a\x0bhref=z>`` as one tag name);
- an ``<a>`` left open, or followed by any other tag.

The builder is skipped on certified pages rather than fed from the scan:
feeding it tokens from one scan removes only the tokenizer, and a
prototype of that design reached 1.37x on ``iter_hrefs`` because the
builder's own per-event dispatch was about half of what remained. The
skip is about 11x (``tools/extract_bench.py``); about 2% of generated
corpus pages decline. ``tests/test_extract.py`` holds the differential
guard: both routes agree on generated corpora, every golden in the file,
and a mutation fuzz.
"""

from __future__ import annotations

import re
from html import unescape
from html.parser import HTMLParser

# HTML5 "special" category subset relevant to adoption agency / scopes.
_SPECIAL = frozenset(
    """address applet area article aside base basefont bgsound blockquote body
    br button caption center col colgroup dd details dir div dl dt embed
    fieldset figcaption figure footer form frame frameset h1 h2 h3 h4 h5 h6
    head header hgroup hr html iframe img input keygen li link listing main
    marquee menu meta nav noembed noframes noscript object ol p param
    plaintext pre script section select source style summary table tbody td
    template textarea tfoot th thead title tr track ul wbr xmp""".split()
)

_FORMATTING = frozenset("a b big code em font i nobr s small strike strong tt u".split())

_VOID = frozenset(
    "area base basefont bgsound br col embed frame hr img input keygen link meta param source track wbr".split()
)

# Start tags that close an open <p> (HTML5 "in body": has a p in button scope).
_P_CLOSERS = frozenset(
    """address article aside blockquote center details dialog dir div dl
    fieldset figcaption figure footer form h1 h2 h3 h4 h5 h6 header hgroup
    hr listing main menu nav ol p plaintext pre section summary table
    ul""".split()
)

# Start tags that imply closing an open <li> / <dd> / <dt>.
_LI_SCOPE_END = frozenset(["li"])
_DD_DT = frozenset(["dd", "dt"])


class _Element:
    __slots__ = ("tag", "attrs", "href", "birth", "text")

    def __init__(self, tag: str, attrs: tuple, href: str | None):
        self.tag = tag
        self.attrs = attrs
        self.href = href
        self.birth = 0  # insertion sequence (set by the builder)
        self.text: list | None = None  # [(seq, chunk)] when collecting


class _AnchorTreeBuilder(HTMLParser):
    """Emits a[href] values in document order per the rules above.

    With ``collect_text=True`` each emitted anchor also accumulates its
    descendant text (goquery ``.Text()`` semantics): a text chunk belongs
    to every ``a`` element open on the stack when it arrives, and the
    adoption-agency clone takes the chunks that arrived after the furthest
    block opened — matching where the DOM actually places them."""

    def __init__(self, collect_text: bool = False) -> None:
        super().__init__(convert_charrefs=True)
        self.stack: list[_Element] = []
        self.afe: list[_Element] = []  # active formatting elements
        self.hrefs: list[str] = []
        self.anchors: list[_Element] = []
        self._collect_text = collect_text
        self._seq = 0

    # -- helpers ----------------------------------------------------------

    def _emit(self, el: _Element) -> None:
        if el.tag == "a" and el.href is not None:
            self.hrefs.append(el.href)
            if self._collect_text:
                if el.text is None:
                    el.text = []
                self.anchors.append(el)

    def _new_element(self, tag: str, attrs: tuple, href: str | None) -> _Element:
        el = _Element(tag, attrs, href)
        self._seq += 1
        el.birth = self._seq
        return el

    def _push(self, tag: str, attrs: tuple, href: str | None) -> _Element:
        el = self._new_element(tag, attrs, href)
        self.stack.append(el)
        self._emit(el)
        return el

    def _on_stack(self, el: _Element) -> bool:
        return any(e is el for e in self.stack)

    def _reconstruct(self) -> None:
        """Re-open active formatting elements not on the stack (emitting
        clones of <a> elements, matching net/html reconstruction)."""
        if not self.afe:
            return
        i = len(self.afe) - 1
        if self._on_stack(self.afe[i]):
            return
        while i > 0 and not self._on_stack(self.afe[i - 1]):
            i -= 1
        for j in range(i, len(self.afe)):
            old = self.afe[j]
            clone = self._push(old.tag, old.attrs, old.href)
            self.afe[j] = clone

    def _afe_add(self, el: _Element) -> None:
        # Noah's ark clause: at most 3 identical (tag, attrs) entries.
        same = [e for e in self.afe if e.tag == el.tag and e.attrs == el.attrs]
        if len(same) >= 3:
            self.afe.remove(same[0])
        self.afe.append(el)

    def _furthest_block(self, el: _Element) -> _Element | None:
        """Earliest special element above `el` on the stack, if any."""
        try:
            idx = next(i for i, e in enumerate(self.stack) if e is el)
        except StopIteration:
            return None
        for e in self.stack[idx + 1 :]:
            if e.tag in _SPECIAL:
                return e
        return None

    def _adopt(self, tag: str) -> None:
        """Simplified adoption agency for a formatting end tag / implied
        close. Emits a clone into the furthest block when one exists."""
        fmt = next((e for e in reversed(self.afe) if e.tag == tag), None)
        if fmt is None:
            # "any other end tag": pop to matching open element if present.
            self._pop_to(tag)
            return
        if not self._on_stack(fmt):
            self.afe.remove(fmt)
            return
        fb = self._furthest_block(fmt)
        if fb is None:
            # Pop up to and including fmt.
            while self.stack:
                e = self.stack.pop()
                if e is fmt:
                    break
            self.afe.remove(fmt)
            return
        # Clone fmt into the furthest block (this is the observable effect of
        # AAA steps 13-19 for the a[href] query: one extra element in the
        # document). The clone does not rejoin the AFE — see module docstring.
        self.stack.remove(fmt)
        self.afe.remove(fmt)
        fb_idx = next(i for i, e in enumerate(self.stack) if e is fb)
        clone = self._new_element(fmt.tag, fmt.attrs, fmt.href)
        self._emit(clone)
        if fmt.text is not None and clone.text is not None:
            # DOM placement: text that arrived after the furthest block
            # opened sits inside the block — it moves to the clone.
            clone.text.extend(c for c in fmt.text if c[0] > fb.birth)
            fmt.text = [c for c in fmt.text if c[0] <= fb.birth]
        self.stack.insert(fb_idx + 1, clone)

    def _pop_to(self, tag: str) -> None:
        if not any(e.tag == tag for e in self.stack):
            return
        while self.stack:
            e = self.stack.pop()
            if e.tag == tag:
                break

    def _close_p(self) -> None:
        if any(e.tag == "p" for e in self.stack):
            self._pop_to("p")

    # -- tokenizer callbacks ----------------------------------------------

    def handle_starttag(self, tag: str, attrs: list) -> None:
        if tag in ("html", "head", "body"):
            return
        href = None
        if tag == "a":
            for k, v in attrs:  # first occurrence wins, like net/html
                if k == "href":
                    href = v if v is not None else ""
                    break

        if tag == "a":
            if any(e.tag == "a" for e in self.afe):
                self._adopt("a")
                # Spec: remove any leftover a from AFE and stack.
                for e in [e for e in self.afe if e.tag == "a"]:
                    self.afe.remove(e)
                    if self._on_stack(e):
                        self.stack.remove(e)
                # The AAA clone (not in the AFE) must be closed too — a new
                # <a> never leaves an old one open. Emission already
                # happened at insertion, so hrefs are unchanged; this only
                # stops the nested anchor's text leaking into the clone.
                for e in [e for e in self.stack if e.tag == "a"]:
                    self.stack.remove(e)
            self._reconstruct()
            el = self._push(tag, tuple(attrs), href)
            self._afe_add(el)
            return

        if tag in _FORMATTING:
            self._reconstruct()
            el = self._push(tag, tuple(attrs), None)
            self._afe_add(el)
            return

        if tag in _P_CLOSERS:
            self._close_p()
            if tag == "hr":
                return  # void
            self._push(tag, (), None)
            return

        if tag in ("li", "dd", "dt"):
            # Imply end of previous li/dd/dt.
            self._pop_to(tag)
            self._push(tag, (), None)
            return

        if tag in _VOID:
            if tag in ("br", "img", "embed", "input", "wbr", "area"):
                self._reconstruct()
            return

        if tag in _SPECIAL:
            self._push(tag, (), None)
            return

        # Any other start tag: reconstruct, then insert.
        self._reconstruct()
        self._push(tag, (), None)

    def handle_startendtag(self, tag: str, attrs: list) -> None:
        # HTML5 ignores the trailing slash on non-void elements.
        if tag in _VOID:
            self.handle_starttag(tag, attrs)
        else:
            self.handle_starttag(tag, attrs)
            self.handle_endtag(tag)

    def handle_endtag(self, tag: str) -> None:
        if tag in ("html", "body", "head", "br"):
            return
        if tag in _FORMATTING:
            self._adopt(tag)
            return
        self._pop_to(tag)

    def handle_data(self, data: str) -> None:
        if data and not data.isspace():
            self._reconstruct()
        if self._collect_text and data:
            self._seq += 1
            for e in self.stack:
                if e.text is not None:
                    e.text.append((self._seq, data))


def _builder_hrefs(html_content: str) -> list[str]:
    """``iter_hrefs`` through the tree builder and the stdlib tokenizer."""
    builder = _AnchorTreeBuilder()
    try:
        builder.feed(html_content)
        builder.close()
    except Exception:
        # stdlib tokenizer is lenient; guard against pathological inputs —
        # whatever was extracted before the failure is kept (net/html never
        # errors on content either).
        pass
    return builder.hrefs


def _builder_anchors(html_content: str) -> list[tuple[str, str]]:
    """``iter_anchors`` through the tree builder and the stdlib tokenizer."""
    builder = _AnchorTreeBuilder(collect_text=True)
    try:
        builder.feed(html_content)
        builder.close()
    except Exception:
        pass
    return [
        (el.href, "".join(c[1] for c in el.text or ())) for el in builder.anchors
    ]


# -- flat-anchor scan -------------------------------------------------------
#
# A strict subset of html.parser's tokenizer grammar, written so that every
# token it accepts is one html.parser reads with the same extent, name,
# attributes and self-closing flag. Separators are [ \t\n\r\f] only: the
# stdlib ends tag names at exactly those, so any other whitespace inside a
# tag makes the scan decline.
_WS = r"[ \t\n\r\f]"
_NAME_END = r"[ \t\n\r\f/>]"  # what may follow a tag name
_NAME_CH = r"[-.:_a-zA-Z0-9]"
_TAG_NAME = rf"[a-zA-Z]{_NAME_CH}*+"
_ATTR_NAME = rf"[a-zA-Z_:]{_NAME_CH}*+"
# A bare value runs to whitespace or ">" (so ``<a href=u/>`` keeps the "/"
# and is not self-closing); it may not start with "=" ("==" is one
# indicator to the stdlib) and may not hold a quote.
_BARE = r"""[^\s>"'=][^\s>"']*+"""
_VALUE = rf"""{_WS}*+={_WS}*+(?:"[^"]*+"|'[^']*+'|{_BARE})"""
_ATTR = rf"{_WS}++{_ATTR_NAME}(?:{_VALUE})?"
_IS_HREF = rf"(?i:href)(?!{_NAME_CH})"
# No "--" inside and no "<!-->" / "<!--->": where the stdlib's comment
# rules differ (old "--\s*>" search, newer abrupt closes), such a comment
# ends at the same "-->" under all of them.
_COMMENT = r"<!--(?![->])(?:[^-]|-(?!-))*+-->"
_DOCTYPE = r"<![dD][oO][cC][tT][yY][pP][eE][^>]*+>"
# Raw-text elements switch the stdlib tokenizer into another mode.
_RAW = "|".join(
    HTMLParser.CDATA_CONTENT_ELEMENTS
    + getattr(HTMLParser, "RCDATA_CONTENT_ELEMENTS", ())
)
_OTHER_START = (
    rf"<(?![aA]{_NAME_END})(?!(?i:{_RAW}){_NAME_END})"
    rf"{_TAG_NAME}(?:{_ATTR})*+{_WS}*+/?>"
)
_END = rf"</{_TAG_NAME}{_WS}*+>"
# One match: everything up to the next <a> start tag (or the end), then
# that <a> with its text through its </a>. Groups: 1 href present,
# 2/3/4 its double-quoted / single-quoted / bare value, 5 the text,
# 6 end of input.
_FLAT_SCAN = re.compile(
    rf"(?:[^<]++|{_OTHER_START}|{_END}|{_COMMENT}|{_DOCTYPE})*+"
    rf"(?:<[aA](?={_NAME_END})"
    rf"(?:{_WS}++(?!{_IS_HREF}){_ATTR_NAME}(?:{_VALUE})?)*+"
    rf"""(?:({_WS}++{_IS_HREF})(?:{_WS}*+={_WS}*+(?:"([^"]*+)"|'([^']*+)'|({_BARE})))?"""
    rf"(?:{_ATTR})*+)?"
    rf"{_WS}*+(?:/>|>((?:[^<]++|{_COMMENT})*+)</[aA]{_WS}*+>)"
    rf"|(\Z))"
)
_COMMENT_RE = re.compile(_COMMENT)


def _flat_scan(html_content: str, with_text: bool) -> list | None:
    """Anchors of a page that carries the flat-anchor certificate, else None.

    The certificate: every ``<`` in the page starts a token of the grammar
    above, no raw-text element opens, and every ``<a>`` start tag is either
    self-closing or followed by ``</a>`` as its next tag. The tree builder
    then never clones or reconstructs an ``a``, so its output is each
    ``<a>``'s first href in order, with the text between ``<a>`` and
    ``</a>`` (one unescaped chunk per stretch between comments).
    """
    out: list = []
    match = _FLAT_SCAN.match
    pos = 0
    while True:
        m = match(html_content, pos)
        if m is None:
            return None
        if m[6] is not None:
            return out
        pos = m.end()
        if m[1] is None:
            continue
        href = m[2] or m[3] or m[4]
        href = unescape(href) if href else ""
        if not with_text:
            out.append(href)
            continue
        text = m[5]
        if not text:
            text = ""
        elif "<" in text:
            text = "".join(unescape(c) for c in _COMMENT_RE.split(text))
        else:
            text = unescape(text)
        out.append((href, text))


def iter_hrefs(html_content: str) -> list[str]:
    """All ``a[href]`` attribute values in document order (duplicates kept),
    as goquery's ``doc.Find("a[href]")`` would see them."""
    hrefs = _flat_scan(html_content, False)
    return _builder_hrefs(html_content) if hrefs is None else hrefs


def iter_anchors(html_content: str) -> list[tuple[str, str]]:
    """(href, raw descendant text) per anchor, in the same document order —
    ``[h for h, _ in iter_anchors(x)] == iter_hrefs(x)`` by construction.
    Text is the concatenated raw chunks (goquery ``.Text()``); callers
    normalize whitespace for a stable data product."""
    anchors = _flat_scan(html_content, True)
    return _builder_anchors(html_content) if anchors is None else anchors
