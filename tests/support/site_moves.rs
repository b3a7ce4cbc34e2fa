//! The kernel source lines the warp-form ports of the kernels moved, and
//! the rewrite that maps documents pinned before the ports onto today's
//! lines.
//!
//! Profile reports, hotspot tables and diff expositions name sites as
//! `crates/core/src/kernels/<file>.rs:<line>`. Porting levels A–F, W and
//! the adaptive kernel to warp form kept every site and its counters but
//! moved the lines of most of them, so the goldens captured before the
//! ports differ from today's output in exactly those strings. The goldens stay
//! byte-identical; the tests rewrite them through [`SITE_MOVES`] before
//! the exact compare. Each new line was placed so that the sites of one
//! file sort in the same order as before, since reports break ties
//! between equal rows by the `file:line` string.

/// Per kernel file: `(old line, new line)` of every site that moved.
pub const SITE_MOVES: &[(&str, &[(u32, u32)])] = &[
    (
        "adaptive",
        &[
            (53, 49),
            (54, 50),
            (55, 51),
            (56, 52),
            (57, 53),
            (59, 55),
            (61, 57),
            (62, 58),
            (64, 63),
            (66, 65),
            (68, 67),
            (70, 69),
            (72, 73),
            (74, 75),
            (78, 80),
            (82, 84),
            (83, 86),
            (90, 93),
            (113, 120),
            (114, 121),
            (115, 122),
            (129, 137),
            (130, 138),
            (131, 139),
            (132, 140),
            (133, 141),
            (135, 143),
            (140, 148),
            (141, 149),
            (143, 152),
            (148, 156),
        ],
    ),
    (
        "mod",
        &[
            (72, 65),
            (73, 66),
            (74, 67),
            (75, 68),
            (76, 69),
            (78, 71),
            (80, 73),
            (81, 74),
            (83, 78),
            (85, 80),
            (87, 82),
            (89, 84),
            (91, 87),
            (93, 89),
            (95, 94),
            (96, 95),
            (97, 96),
            (101, 102),
            (104, 105),
            (129, 125),
            (130, 126),
            (131, 127),
            (132, 128),
            (133, 129),
            (135, 131),
            (138, 134),
            (140, 136),
            (142, 144),
            (144, 146),
            (146, 148),
            (148, 150),
            (150, 152),
            (152, 154),
            (154, 157),
            (156, 159),
            (158, 161),
            (159, 162),
            (160, 163),
            (161, 164),
            (163, 166),
            (183, 185),
            (184, 186),
            (189, 196),
            (190, 197),
            (191, 198),
            (213, 216),
            (214, 217),
            (223, 233),
            (224, 234),
            (225, 235),
        ],
    ),
    (
        "scan",
        &[
            (36, 38),
            (37, 39),
            (42, 45),
            (43, 46),
            (56, 61),
            (57, 62),
            (61, 66),
            (67, 74),
            (68, 75),
            (73, 83),
        ],
    ),
    (
        "sorted",
        &[
            (32, 25),
            (33, 26),
            (38, 31),
            (39, 32),
            (46, 39),
            (52, 45),
            (53, 46),
            (56, 48),
            (57, 49),
            (67, 62),
            (68, 63),
            (69, 64),
            (72, 67),
            (76, 75),
            (88, 90),
            (89, 91),
            (94, 99),
        ],
    ),
    (
        "tiled",
        &[
            (62, 54),
            (63, 55),
            (106, 112),
            (108, 114),
            (110, 116),
            (112, 118),
            (114, 120),
            (116, 122),
            (118, 125),
            (120, 127),
            (122, 129),
            (123, 130),
            (124, 131),
            (125, 132),
            (128, 135),
            (135, 143),
            (136, 144),
            (137, 145),
            (138, 146),
            (139, 147),
            (141, 149),
            (143, 152),
            (144, 153),
            (149, 161),
            (151, 163),
            (155, 168),
            (156, 169),
            (157, 170),
            (158, 171),
            (159, 172),
            (160, 173),
            (161, 174),
            (162, 175),
        ],
    ),
];

/// Rewrites every `crates/core/src/kernels/<file>.rs:<line>` in `text`
/// whose `(file, line)` is in [`SITE_MOVES`] to the new line, in one
/// pass (so a site moved onto another's old line is not moved twice).
pub fn apply(text: &str) -> String {
    const PREFIX: &str = "crates/core/src/kernels/";
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(PREFIX) {
        let (head, tail) = rest.split_at(at + PREFIX.len());
        out.push_str(head);
        rest = tail;
        let Some((file, after)) = rest.split_once(".rs:") else {
            continue;
        };
        if !file.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            continue;
        }
        let digits = after.len() - after.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        let Ok(line) = after[..digits].parse::<u32>() else {
            continue;
        };
        let new = moved(file, line).unwrap_or(line);
        out.push_str(file);
        out.push_str(".rs:");
        out.push_str(&new.to_string());
        rest = &after[digits..];
    }
    out.push_str(rest);
    out
}

/// The new line of site `file.rs:line`, if it moved.
pub fn moved(file: &str, line: u32) -> Option<u32> {
    SITE_MOVES
        .iter()
        .find(|(f, _)| *f == file)
        .and_then(|(_, moves)| moves.iter().find(|&&(old, _)| old == line))
        .map(|&(_, new)| new)
}
