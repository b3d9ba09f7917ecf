"""Link-extraction goldens ported from the reference's parser tests
(/root/reference/internal/parser/parser_test.go, fixtures_test.go,
comprehensive_test.go). Assertions compare sorted multisets, as the
reference's comprehensive fixture test does — duplicate links count."""

from __future__ import annotations

import pytest

from urlmap_ray.extract import (
    ExtractionStats,
    extract_links,
    extract_links_with_stats,
    extract_same_domain_links,
)
from urlmap_ray.urlnorm import URLError

BASE = "https://example.com"

# parser_test.go:36-196 (TestLinkExtractor_ExtractLinks)
CASES = [
    ("empty html", BASE, "", []),
    ("no links", BASE, "<html><body><p>No links here</p></body></html>", []),
    (
        "single absolute",
        BASE,
        '<html><body><a href="https://example.com/page1">Page 1</a></body></html>',
        ["https://example.com/page1"],
    ),
    (
        "single relative",
        BASE,
        '<html><body><a href="/page1">Page 1</a></body></html>',
        ["https://example.com/page1"],
    ),
    (
        "multiple mixed",
        BASE,
        """<html><body>
            <a href="https://example.com/absolute">Absolute</a>
            <a href="/relative">Relative</a>
            <a href="./relative2">Relative2</a>
            <a href="../parent">Parent</a>
        </body></html>""",
        [
            "https://example.com/absolute",
            "https://example.com/relative",
            "https://example.com/relative2",
            "https://example.com/parent",
        ],
    ),
    (
        "fragments removed",
        BASE,
        """<html><body>
            <a href="https://example.com/page#section">With Fragment</a>
            <a href="/relative#fragment">Relative with Fragment</a>
        </body></html>""",
        ["https://example.com/page", "https://example.com/relative"],
    ),
    (
        "invalid schemes filtered",
        BASE,
        """<html><body>
            <a href="javascript:void(0)">JavaScript</a>
            <a href="mailto:test@example.com">Email</a>
            <a href="tel:+1234567890">Phone</a>
            <a href="ftp://example.com/file">FTP</a>
            <a href="https://example.com/valid">Valid</a>
        </body></html>""",
        ["https://example.com/valid"],
    ),
    (
        "fragment-only filtered",
        BASE,
        """<html><body>
            <a href="#section1">Section 1</a>
            <a href="#section2">Section 2</a>
            <a href="https://example.com/valid">Valid</a>
        </body></html>""",
        ["https://example.com/valid"],
    ),
    (
        "empty hrefs",
        BASE,
        """<html><body>
            <a href="">Empty</a>
            <a href="   ">Whitespace Only</a>
            <a href="https://example.com/valid">Valid</a>
        </body></html>""",
        ["https://example.com/valid"],
    ),
    (
        "anchors without href",
        BASE,
        """<html><body>
            <a name="anchor">Named Anchor</a>
            <a id="target">ID Target</a>
            <a href="https://example.com/valid">Valid</a>
        </body></html>""",
        ["https://example.com/valid"],
    ),
    (
        "complex structure",
        BASE,
        """<html>
        <head><title>Test Page</title></head>
        <body>
            <nav>
                <a href="/home">Home</a>
                <a href="/about">About</a>
            </nav>
            <main>
                <article>
                    <h1>Article Title</h1>
                    <p>Some text with <a href="https://external.com">external link</a></p>
                    <p>And <a href="/internal">internal link</a></p>
                </article>
            </main>
            <footer>
                <a href="/contact">Contact</a>
                <a href="mailto:contact@example.com">Email</a>
            </footer>
        </body>
        </html>""",
        [
            "https://example.com/home",
            "https://example.com/about",
            "https://external.com/",
            "https://example.com/internal",
            "https://example.com/contact",
        ],
    ),
]


@pytest.mark.parametrize("name,base,html,expected", CASES, ids=[c[0] for c in CASES])
def test_extract_links(name, base, html, expected):
    assert sorted(extract_links(base, html)) == sorted(expected)


def test_extract_links_errors():
    with pytest.raises(URLError):
        extract_links("", '<a href="/test">T</a>')
    with pytest.raises(URLError):
        extract_links("not-a-url", '<a href="/test">T</a>')


# parser_test.go:445-487 (TestLinkExtractor_MalformedHTML) — must not raise.
@pytest.mark.parametrize(
    "html",
    [
        '<html><body><a href="/test">Test',
        '<a href="/outer"><a href="/inner">Nested</a></a>',
        '<A HREF="/test">Test</A>',
        "<a href=/test>Test</a>",
    ],
)
def test_malformed_html_no_error(html):
    extract_links(BASE, html)


def test_nested_anchor_implied_close():
    # HTML5: second <a> implies closing the first; both hrefs kept once.
    links = extract_links(BASE, '<a href="/outer"><a href="/inner">Nested</a></a>')
    assert sorted(links) == ["https://example.com/inner", "https://example.com/outer"]


def test_mixed_case_and_unquoted():
    assert extract_links(BASE, '<A HREF="/test">T</A>') == ["https://example.com/test"]
    assert extract_links(BASE, "<a href=/test>T</a>") == ["https://example.com/test"]


# fixtures_test.go:13-257 (GetTestFixtures) — full-document goldens.
FIXTURES = [
    (
        "Simple links",
        "https://example.com",
        """<!DOCTYPE html>
<html>
<head><title>Test Page</title></head>
<body>
\t<a href="/page1">Page 1</a>
\t<a href="/page2">Page 2</a>
\t<a href="https://other.com/external">External</a>
</body>
</html>""",
        [
            "https://example.com/page1",
            "https://example.com/page2",
            "https://other.com/external",
        ],
    ),
    (
        "Complex navigation",
        "https://blog.example.com",
        """<!DOCTYPE html>
<html>
<head><title>Blog</title></head>
<body>
\t<nav>
\t\t<a href="/">Home</a>
\t\t<a href="/about">About</a>
\t\t<a href="/posts">Posts</a>
\t\t<a href="../admin">Admin</a>
\t</nav>
\t<main>
\t\t<article>
\t\t\t<h1><a href="/posts/2023/article-1">Article 1</a></h1>
\t\t\t<p>Content with <a href="/posts/2023/article-2">another article</a></p>
\t\t</article>
\t</main>
\t<footer>
\t\t<a href="mailto:contact@example.com">Contact</a>
\t\t<a href="tel:+1234567890">Call</a>
\t\t<a href="#top">Back to top</a>
\t</footer>
</body>
</html>""",
        [
            "https://blog.example.com/",
            "https://blog.example.com/about",
            "https://blog.example.com/posts",
            "https://blog.example.com/admin",
            "https://blog.example.com/posts/2023/article-1",
            "https://blog.example.com/posts/2023/article-2",
        ],
    ),
    (
        "E-commerce page",
        "https://shop.example.com/category/electronics",
        """<!DOCTYPE html>
<html>
<head><title>Electronics</title></head>
<body>
\t<div class="products">
\t\t<div class="product">
\t\t\t<a href="./laptop-1">
\t\t\t\t<img src="/images/laptop1.jpg" alt="Laptop 1">
\t\t\t\t<h3>Gaming Laptop</h3>
\t\t\t</a>
\t\t\t<a href="./laptop-1?tab=reviews" class="reviews-link">Reviews</a>
\t\t</div>
\t\t<div class="product">
\t\t\t<a href="/category/electronics/phone-1">Smartphone</a>
\t\t\t<a href="/category/electronics/phone-1#specifications">Specs</a>
\t\t</div>
\t</div>
\t<div class="pagination">
\t\t<a href="?page=1">1</a>
\t\t<a href="?page=2" class="current">2</a>
\t\t<a href="?page=3">3</a>
\t\t<a href="?page=2&sort=price">Sort by Price</a>
\t</div>
</body>
</html>""",
        [
            "https://shop.example.com/category/laptop-1",
            "https://shop.example.com/category/laptop-1?tab=reviews",
            "https://shop.example.com/category/electronics/phone-1",
            "https://shop.example.com/category/electronics/phone-1",
            "https://shop.example.com/category/electronics?page=1",
            "https://shop.example.com/category/electronics?page=2",
            "https://shop.example.com/category/electronics?page=3",
            "https://shop.example.com/category/electronics?page=2&sort=price",
        ],
    ),
    (
        "Social media links",
        "https://company.example.com",
        """<!DOCTYPE html>
<html>
<head><title>Company</title></head>
<body>
\t<div class="social-links">
\t\t<a href="https://twitter.com/company">Twitter</a>
\t\t<a href="https://facebook.com/company">Facebook</a>
\t\t<a href="https://linkedin.com/company/company">LinkedIn</a>
\t\t<a href="https://github.com/company">GitHub</a>
\t</div>
\t<div class="internal-links">
\t\t<a href="/team">Our Team</a>
\t\t<a href="/careers">Careers</a>
\t\t<a href="/blog/">Blog</a>
\t</div>
\t<div class="special-links">
\t\t<a href="javascript:void(0)" onclick="openModal()">Open Modal</a>
\t\t<a href="#section1">Section 1</a>
\t\t<a href="data:text/plain;base64,SGVsbG8gV29ybGQ=">Data URL</a>
\t\t<a href="ftp://files.example.com/doc.pdf">FTP File</a>
\t</div>
</body>
</html>""",
        [
            "https://twitter.com/company",
            "https://facebook.com/company",
            "https://linkedin.com/company/company",
            "https://github.com/company",
            "https://company.example.com/team",
            "https://company.example.com/careers",
            "https://company.example.com/blog",
        ],
    ),
    (
        "Malformed HTML",
        "https://broken.example.com",
        """<!DOCTYPE html>
<html>
<head><title>Broken Page</title>
<body>
\t<div class="content">
\t\t<a href="/page1">Page 1</a>
\t\t<a href="/page2">Page 2
\t\t<div>
\t\t\t<a href="/nested/page">Nested</a>
\t\t</div>
\t</div>
</body>
</html>""",
        [
            "https://broken.example.com/page1",
            "https://broken.example.com/page2",
            "https://broken.example.com/page2",
            "https://broken.example.com/nested/page",
        ],
    ),
    (
        "Empty and edge cases",
        "https://edge.example.com",
        """<!DOCTYPE html>
<html>
<head><title>Edge Cases</title></head>
<body>
\t<a href="">Empty href</a>
\t<a href="   ">Whitespace href</a>
\t<a href=".">Current directory</a>
\t<a href="..">Parent directory</a>
\t<a href="/">Root</a>
\t<a href="./same-dir">Same directory</a>
\t<a href="../parent-dir">Parent directory</a>
\t<a href="?query=test">Query only</a>
\t<a href="#fragment">Fragment only</a>
\t<a href="?query=test#fragment">Query with fragment</a>
\t<a>No href attribute</a>
\t<a href="/normal" title="Normal link">Normal</a>
</body>
</html>""",
        [
            "https://edge.example.com/",
            "https://edge.example.com/",
            "https://edge.example.com/",
            "https://edge.example.com/same-dir",
            "https://edge.example.com/parent-dir",
            "https://edge.example.com/?query=test",
            "https://edge.example.com/?query=test",
            "https://edge.example.com/normal",
        ],
    ),
    (
        "URL parameters and encodings",
        "https://api.example.com",
        """<!DOCTYPE html>
<html>
<head><title>API Documentation</title></head>
<body>
\t<a href="/v1/users">Users API</a>
\t<a href="/v1/users?limit=10">Users with limit</a>
\t<a href="/v1/users?limit=10&offset=20">Users with pagination</a>
\t<a href="/v1/search?q=test+query">Search with encoded space</a>
\t<a href="/v1/data?format=json&pretty=true">JSON data</a>
</body>
</html>""",
        [
            "https://api.example.com/v1/users",
            "https://api.example.com/v1/users?limit=10",
            "https://api.example.com/v1/users?limit=10&offset=20",
            "https://api.example.com/v1/search?q=test+query",
            "https://api.example.com/v1/data?format=json&pretty=true",
        ],
    ),
]


@pytest.mark.parametrize("name,base,html,expected", FIXTURES, ids=[f[0] for f in FIXTURES])
def test_fixtures(name, base, html, expected):
    assert sorted(extract_links(base, html)) == sorted(expected)


# fixtures_test.go GetSameDomainTestFixtures + parser_test.go:236-295
SAME_DOMAIN_CASES = [
    (
        "Mixed domain links",
        "https://example.com",
        """<!DOCTYPE html>
<html>
<head><title>Mixed Domains</title></head>
<body>
\t<a href="/internal1">Internal 1</a>
\t<a href="https://example.com/internal2">Internal 2</a>
\t<a href="https://sub.example.com/subdomain">Subdomain</a>
\t<a href="https://other.com/external">External</a>
\t<a href="https://example.org/different-tld">Different TLD</a>
\t<a href="http://example.com/different-scheme">Different Scheme</a>
</body>
</html>""",
        [
            "https://example.com/internal1",
            "https://example.com/internal2",
            "http://example.com/different-scheme",
        ],
    ),
    (
        "All external",
        "https://example.com",
        """<html><body>
            <a href="https://other.com/page1">External 1</a>
            <a href="https://another.com/page2">External 2</a>
        </body></html>""",
        [],
    ),
]


@pytest.mark.parametrize(
    "name,base,html,expected", SAME_DOMAIN_CASES, ids=[c[0] for c in SAME_DOMAIN_CASES]
)
def test_same_domain(name, base, html, expected):
    assert sorted(extract_same_domain_links(base, html)) == sorted(expected)


def test_extract_links_with_stats():
    # parser_test.go:338-402
    html = """<html><body>
        <a href="https://example.com/valid1">Valid 1</a>
        <a href="/valid2">Valid 2 (relative)</a>
        <a href="">Empty href</a>
        <a href="javascript:void(0)">JavaScript</a>
        <a href="mailto:test@example.com">Email</a>
        <a href="#fragment">Fragment only</a>
        <a name="anchor">No href</a>
        <a href="   ">Whitespace only</a>
        <a href="invalid-url">Invalid URL</a>
        <a href="https://example.com/valid3">Valid 3</a>
    </body></html>"""
    links, stats = extract_links_with_stats(BASE, html)
    assert stats.total_found == 9
    assert stats.valid == 4
    assert stats.empty_hrefs == 2
    assert stats.filtered_out == 3
    assert stats.relative_urls == 2
    assert stats.resolution_errors == 0
    assert stats.invalid_urls == 0
    assert stats.normalization_errors == 0
    assert links == [
        "https://example.com/valid1",
        "https://example.com/valid2",
        "https://example.com/invalid-url",
        "https://example.com/valid3",
    ]


def test_document_order_and_duplicates():
    # Document order with duplicates preserved (goquery .Each is DOM order).
    html = '<a href="/b">1</a><a href="/a">2</a><a href="/b">3</a>'
    assert extract_links(BASE, html) == [
        "https://example.com/b",
        "https://example.com/a",
        "https://example.com/b",
    ]


def test_script_content_not_parsed():
    html = '<script>var s = \'<a href="/fake">x</a>\';</script><a href="/real">r</a>'
    assert extract_links(BASE, html) == ["https://example.com/real"]


# ---------------------------------------------------------------------------
# Anchor-text extraction (beyond-reference link-text corpus operator).


def test_iter_anchors_aligns_with_iter_hrefs():
    from urlmap_ray.htmlparse import iter_anchors, iter_hrefs

    cases = [
        '<a href="/x">hello</a>',
        '<a href="/p2">first<div>block <a href="/p3">third</a></div>',
        '<div><a href="/1">one</div>two',
        '<a href="/y">one<div>two</div></a>tail',
        '<p><a href="/a">x<p>y</p></a>',
        "",
        "<a>no href</a>",
    ]
    for c in cases:
        assert [h for h, _ in iter_anchors(c)] == iter_hrefs(c), c


def test_anchor_text_goldens():
    from urlmap_ray.htmlparse import iter_anchors

    def norm(html):
        return [(h, " ".join(t.split())) for h, t in iter_anchors(html)]

    # plain + nested inline markup + entity refs
    assert norm('<a href="/x">he<b>ll</b>o</a>') == [("/x", "hello")]
    assert norm('<a href="/x">a &amp; b</a>') == [("/x", "a & b")]
    # block nested inside anchor stays the anchor's text (valid HTML5)
    assert norm('<a href="/y">one<div>two</div></a>') == [("/y", "onetwo")]
    # adoption agency via a second <a>: clone gets the block text BEFORE
    # the new anchor; the nested anchor's text does not leak into it
    assert norm('<a href="/p2">first<div>block <a href="/p3">third</a></div>') == [
        ("/p2", "first"),
        ("/p2", "block"),
        ("/p3", "third"),
    ]
    # reconstruction clone after a block close gets the following text
    assert norm('<div><a href="/1">one</div>two') == [("/1", "one"), ("/1", "two")]
    # empty anchors and whitespace normalization
    assert norm('<a href="/e"></a><a href="/s">  spaced\t out </a>') == [
        ("/e", ""),
        ("/s", "spaced out"),
    ]


def test_extract_anchors_href_chain_matches_extract_links():
    from urlmap_ray.extract import extract_anchors, extract_links

    html = (
        '<a href="/rel">r</a><a href="https://other.example/p">abs</a>'
        '<a href="javascript:x()">skip</a><a href="">empty</a>'
        '<a href="/dir/">trail</a>'
    )
    base = "https://example.com/base"
    pairs = extract_anchors(base, html)
    assert [p[0] for p in pairs] == extract_links(base, html)
    assert [p[1] for p in pairs] == ["r", "abs", "trail"]


def test_extract_anchors_batch_explodes(ray_session):
    import pyarrow as pa

    from urlmap_ray.extract import extract_anchors_batch

    batch = pa.table(
        {
            "url": pa.array(
                ["https://h.test/", "https://h.test/p", "https://h.test/e"]
            ),
            "html": pa.array(
                [
                    b'<a href="/a">one</a><a href="/b">two</a>',
                    b'<a href="/c">three</a>',
                    None,
                ],
                pa.binary(),
            ),
        }
    )
    out = extract_anchors_batch(batch)
    assert out.column_names == ["src", "dst", "anchor"]
    assert out.column("src").to_pylist() == [
        "https://h.test/",
        "https://h.test/",
        "https://h.test/p",
    ]
    assert out.column("dst").to_pylist() == [
        "https://h.test/a",
        "https://h.test/b",
        "https://h.test/c",
    ]
    assert out.column("anchor").to_pylist() == ["one", "two", "three"]


# ---------------------------------------------------------------------------
# Flat-anchor scan vs the tree builder: iter_hrefs / iter_anchors answer
# from one regex scan when the page carries the flat-anchor certificate and
# run the tree builder otherwise; both routes must agree on every input.

# Fragments the mutation fuzz inserts: anchors nested in formatting and
# block elements, html.parser edge cases the scan must match or decline.
_FUZZ_FRAGMENTS = [
    '<b><a href="/n">n',
    '<b><a href="/nb">n</a></b>',
    '<p><a href="/p">p</p>',
    '<div><a href="/d">d<div>',
    '<table><a href="/t">t</a></table>',
    "<a href=u/>",
    "<a href=u/>u</a>",
    "<a\x0bhref=z>",
    "<A HREF='y&amp;z'>",
    "<A HREF='y&amp;z'>y</A>",
    '<a href="/c">x<!-- c -->&amp;y</a>',
    "&nbsp;",
    "<script>",
    '<script>"<a href=s>"</script>',
    "<!-->",
    "</a >",
    "</a>",
]


def _golden_html() -> list[str]:
    """Every string literal in this file that holds markup."""
    import ast

    with open(__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "<" in node.value
    ]


def _mutate(rng, html: str) -> str:
    for _ in range(rng.randint(1, 3)):
        pos = rng.randint(0, len(html))
        op = rng.random()
        if op < 0.2:
            html = html[:pos]
        elif op < 0.4:
            gt = html.find(">", pos)
            if gt >= 0:
                html = html[:gt] + html[gt + 1 :]
        else:
            html = html[:pos] + rng.choice(_FUZZ_FRAGMENTS) + html[pos:]
    return html


def _assert_routes_agree(html: str) -> bool:
    """Both public functions equal the builder route; True if certified."""
    from urlmap_ray.htmlparse import (
        _builder_anchors,
        _builder_hrefs,
        _flat_scan,
        iter_anchors,
        iter_hrefs,
    )

    assert iter_hrefs(html) == _builder_hrefs(html), repr(html)
    assert iter_anchors(html) == _builder_anchors(html), repr(html)
    return _flat_scan(html, False) is not None


def _corpus_html(seed: int, n_pages: int = 1000) -> list[str]:
    import numpy as np

    from urlmap_ray.corpus import gen_pages_batch, host_layout

    pages = gen_pages_batch(np.arange(n_pages), host_layout(n_pages, 6), seed)
    return [b.decode("utf-8") for b in pages.column("html").to_pylist()]


@pytest.mark.parametrize("seed", [1, 3, 7])
def test_flat_scan_matches_builder_on_corpus(seed):
    pages = _corpus_html(seed)
    certified = sum(_assert_routes_agree(h) for h in pages)
    # The corpus's malformed blocks (an unclosed <a> before a <div>) are
    # the only pages that need the builder; a certificate that declines
    # more than that fails here.
    assert certified >= 0.95 * len(pages)


def test_flat_scan_matches_builder_on_goldens():
    goldens = _golden_html()
    assert len(goldens) > 40
    for html in goldens:
        _assert_routes_agree(html)


def test_flat_scan_matches_builder_on_mutations():
    import random

    rng = random.Random(20240607)
    pages = _corpus_html(1, 200)
    inputs = [_mutate(rng, rng.choice(pages)) for _ in range(1500)]
    inputs += ["".join(rng.choices(_FUZZ_FRAGMENTS, k=rng.randint(1, 8))) for _ in range(1500)]
    certified = sum(_assert_routes_agree(h) for h in inputs)
    # Both routes ran on a real share of the inputs.
    assert 0.05 * len(inputs) < certified < 0.95 * len(inputs)


@pytest.mark.parametrize(
    "html,hrefs,anchors",
    [
        # a bare value keeps the "/": a start tag, not self-closing
        ("<a href=u/>t</a>", ["u/"], [("u/", "t")]),
        ('<a href="u"/>t', ["u"], [("u", "")]),
        # names lowercased, quotes stripped, values unescaped, first href wins
        ("<A HREF='y&amp;z' href=w>t</A >", ["y&z"], [("y&z", "t")]),
        ("<a name=x href>t</a>", [""], [("", "t")]),
        # text: one unescaped chunk per stretch between comments
        ('<a href="/c">a&amp<!-- c -->;b</a>', ["/c"], [("/c", "a&;b")]),
    ],
)
def test_flat_scan_certified_edge_cases(html, hrefs, anchors):
    from urlmap_ray.htmlparse import _flat_scan

    assert _flat_scan(html, False) == hrefs
    assert _flat_scan(html, True) == anchors
    assert _assert_routes_agree(html)


@pytest.mark.parametrize(
    "html",
    [
        "<a\x0bhref=z>t</a>",  # html.parser reads the tag name as a\x0bhref=z
        '<div><a href="/p2">x<div>y</div>',  # <a> followed by another tag
        '<a href="/open">x',  # <a> left open
        '<script>"<a href=s>"</script><a href=r>r</a>',
        "<!--><a href=c>c</a>-->",
        "<?pi><a href=p>p</a>",
        "<![CDATA[x]]><a href=p>p</a>",
        "a < b <a href=p>p</a>",
        '<a href="x>t</a>',  # unbalanced quote
    ],
)
def test_flat_scan_declines(html):
    from urlmap_ray.htmlparse import _flat_scan

    assert _flat_scan(html, False) is None
    assert _flat_scan(html, True) is None
    _assert_routes_agree(html)
