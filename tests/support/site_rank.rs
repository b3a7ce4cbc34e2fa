//! Names source sites by rank, so goldens that pin kernel sites survive
//! moved lines.
//!
//! [`rank_among`] rewrites each `<dir><file>.rs:<line>` to
//! `<dir><file>.rs:#<rank>`, the line's place among the lines of that
//! file the document names ([`lines_named`]). On both sides of a compare, it accepts edits
//! that keep each file's sites in order, and fails on a site added,
//! dropped or reordered. Reports break ties on the `file:line` string,
//! which a move across a power of ten reorders, so compares also put
//! entries that tie on their ranking key in rank order ([`order_ties`])
//! and let a top-N list pick any site tied at its cut ([`free_cut`]).

// Each test crate that includes this file uses a different subset.
#![allow(dead_code)]

/// Directory of the ladder, adaptive and morphology kernels.
pub const KERNELS: &str = "crates/core/src/kernels/";

/// Lines of each file, as `(file stem, line)`.
pub type Lines = std::collections::BTreeSet<(String, u32)>;

/// `text` with each `<dir><file>.rs:<line>` given the line `site(file,
/// line)`. The line is the whole digit run, so `:12` is never read inside
/// `:123`, and what follows it (`"`, `:`, a space) is kept.
fn rewrite(text: &str, dir: &str, mut site: impl FnMut(&str, u32) -> String) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(dir) {
        out.push_str(&rest[..at + dir.len()]);
        rest = &rest[at + dir.len()..];
        let Some((file, after)) = rest.split_once(".rs:") else {
            continue;
        };
        let digits = after.len() - after.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        let is_name = |c: char| c.is_ascii_alphanumeric() || c == '_';
        if file.is_empty() || !file.chars().all(is_name) || digits == 0 {
            continue;
        }
        let line = after[..digits].parse().unwrap();
        out += &format!("{file}.rs:{}", site(file, line));
        rest = &after[digits..];
    }
    out + rest
}

/// Every line of a file under `dir` that `text` names.
pub fn lines_named(text: &str, dir: &str) -> Lines {
    let mut lines = Lines::new();
    rewrite(text, dir, |file, line| {
        lines.insert((file.to_string(), line));
        String::new()
    });
    lines
}

/// The rank of `file`'s `line` among `lines`, which must hold it.
pub fn rank(lines: &Lines, file: &str, line: u32) -> usize {
    let key = (file.to_string(), line);
    assert!(lines.contains(&key), "{file}.rs:{line} is not ranked");
    lines.range((file.to_string(), 0)..key).count()
}

/// `text` with each site under `dir` named by its rank among `lines`.
pub fn rank_among(text: &str, dir: &str, lines: &Lines) -> String {
    rewrite(text, dir, |file, line| {
        format!("#{}", rank(lines, file, line))
    })
}

/// Sorts every run of adjacent `items` that tie on `key` by their sites,
/// named by rank: length first, so `#9` sorts before `#10`.
pub fn order_ties<T, K: PartialEq>(
    items: &mut [T],
    key: impl Fn(&T) -> K,
    site: impl Fn(&T) -> String,
) {
    let mut start = 0;
    while start < items.len() {
        let k = key(&items[start]);
        let end = start + items[start..].iter().take_while(|x| key(x) == k).count();
        items[start..end].sort_by_key(|x| (site(x).len(), site(x)));
        start = end;
    }
}

/// If `items` is a full top-`n` list, calls `free` on every item that
/// ties on `key` with the last: the product may have picked any of the
/// sites tied at the cut. Run it before ranking, so that the choice does
/// not shift the ranks of other sites.
pub fn free_cut<T, K: PartialEq>(
    items: &mut [T],
    n: usize,
    key: impl Fn(&T) -> K,
    free: impl FnMut(&mut T),
) {
    if n > 0 && items.len() == n {
        let last = key(&items[n - 1]);
        items
            .iter_mut()
            .rev()
            .take_while(|x| key(x) == last)
            .for_each(free);
    }
}
