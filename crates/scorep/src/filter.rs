//! Score-P filter files.
//!
//! CaPI writes its instrumentation configurations "as a filter file that
//! is compatible with the format used by Score-P" (paper §III-A). The
//! format reproduced here:
//!
//! ```text
//! SCOREP_REGION_NAMES_BEGIN
//!   EXCLUDE *
//!   INCLUDE solve_*  Amul
//!   INCLUDE MANGLED _ZN4Foam8fvMatrix*
//! SCOREP_REGION_NAMES_END
//! ```
//!
//! Rules are evaluated in order; the last matching rule wins; names that
//! match no rule are included. Patterns are shell wildcards (`*`, `?`).
//! `MANGLED` is accepted and recorded (all names in this workspace are
//! already mangled), `#`-comments and blank lines are skipped.
//!
//! # Lookup cost
//!
//! The ordered rule list is the single source of truth; beside it the
//! filter keeps an index derived from it (literal pattern → position of
//! its last rule, plus the positions of the wildcard rules).
//! [`FilterFile::is_included`] is one hash lookup plus a
//! [`Pattern::matches`] call for each wildcard rule *newer* than the
//! literal hit, newest first, stopping at the first match — O(1) for
//! CaPI's canonical `EXCLUDE *` + N literal includes, whatever N is.
//! Rule order still decides: the newest matching rule wins.

use std::collections::HashMap;
use std::fmt;

/// A shell-wildcard pattern (`*` and `?`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pattern {
    text: String,
}

impl Pattern {
    /// Creates a pattern from its textual form.
    pub fn new(text: impl Into<String>) -> Self {
        Self { text: text.into() }
    }

    /// The textual form.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// Whether this pattern is a literal (no wildcards).
    pub fn is_literal(&self) -> bool {
        !self.text.contains(['*', '?'])
    }

    /// Shell-wildcard matching (iterative with backtracking — no
    /// recursion, patterns come from user files).
    pub fn matches(&self, name: &str) -> bool {
        #[cfg(test)]
        tests::MATCH_CALLS.with(|c| c.set(c.get() + 1));
        let p: &[u8] = self.text.as_bytes();
        let s: &[u8] = name.as_bytes();
        let (mut pi, mut si) = (0usize, 0usize);
        let (mut star_pi, mut star_si) = (usize::MAX, 0usize);
        while si < s.len() {
            // The `*` branch must come first: a literal `*` in the name
            // would otherwise consume the pattern's wildcard byte.
            if pi < p.len() && p[pi] == b'*' {
                star_pi = pi;
                star_si = si;
                pi += 1;
            } else if pi < p.len() && (p[pi] == b'?' || p[pi] == s[si]) {
                pi += 1;
                si += 1;
            } else if star_pi != usize::MAX {
                pi = star_pi + 1;
                star_si += 1;
                si = star_si;
            } else {
                return false;
            }
        }
        while pi < p.len() && p[pi] == b'*' {
            pi += 1;
        }
        pi == p.len()
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// One rule: include or exclude a pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Rule {
    pattern: Pattern,
    include: bool,
}

/// A parsed Score-P region-names filter file.
///
/// Equality compares the ordered rule list only; the lookup index is
/// derived from it.
#[derive(Clone, Debug, Default)]
pub struct FilterFile {
    rules: Vec<Rule>,
    /// Literal pattern text → position in `rules` of its *last* rule.
    literal_last: HashMap<String, usize>,
    /// Positions in `rules` of the wildcard rules, ascending.
    wildcards: Vec<usize>,
}

impl PartialEq for FilterFile {
    fn eq(&self, other: &Self) -> bool {
        self.rules == other.rules
    }
}

impl Eq for FilterFile {}

/// Filter parsing errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FilterParseError {
    /// Missing `SCOREP_REGION_NAMES_BEGIN`.
    MissingBegin,
    /// Missing `SCOREP_REGION_NAMES_END`.
    MissingEnd,
    /// A line inside the block is neither EXCLUDE nor INCLUDE.
    BadDirective {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
}

impl fmt::Display for FilterParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FilterParseError::MissingBegin => write!(f, "missing SCOREP_REGION_NAMES_BEGIN"),
            FilterParseError::MissingEnd => write!(f, "missing SCOREP_REGION_NAMES_END"),
            FilterParseError::BadDirective { line, text } => {
                write!(f, "line {line}: expected EXCLUDE/INCLUDE, got `{text}`")
            }
        }
    }
}

impl std::error::Error for FilterParseError {}

impl FilterFile {
    /// An empty filter (everything included).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the canonical *selection* filter CaPI emits for an IC:
    /// exclude everything, include exactly `names`.
    pub fn include_only<'a>(names: impl IntoIterator<Item = &'a str>) -> Self {
        let mut f = Self::new();
        f.exclude(Pattern::new("*"));
        for n in names {
            f.include(Pattern::new(n));
        }
        f
    }

    /// Appends a rule and indexes it — the only way rules enter the
    /// filter, so the index can never drift from the rule list.
    fn push_rule(&mut self, pattern: Pattern, include: bool) {
        let pos = self.rules.len();
        if pattern.is_literal() {
            self.literal_last.insert(pattern.text.clone(), pos);
        } else {
            self.wildcards.push(pos);
        }
        self.rules.push(Rule { pattern, include });
    }

    /// Appends an EXCLUDE rule.
    pub fn exclude(&mut self, p: Pattern) -> &mut Self {
        self.push_rule(p, false);
        self
    }

    /// Appends an INCLUDE rule.
    pub fn include(&mut self, p: Pattern) -> &mut Self {
        self.push_rule(p, true);
        self
    }

    /// Whether `name` is included (last matching rule wins; default
    /// include).
    pub fn is_included(&self, name: &str) -> bool {
        // A literal pattern matches exactly its own text, so the newest
        // literal rule matching `name` is one hash lookup away.
        let literal = self.literal_last.get(name).copied();
        // Only a wildcard rule newer than that hit can overrule it.
        let wildcard = self
            .wildcards
            .iter()
            .rev()
            .copied()
            .take_while(|&w| literal.is_none_or(|l| w > l))
            .find(|&w| self.rules[w].pattern.matches(name));
        wildcard
            .or(literal)
            .is_none_or(|pos| self.rules[pos].include)
    }

    /// Number of rules.
    pub fn num_rules(&self) -> usize {
        self.rules.len()
    }

    /// Included literal names (used to turn an IC filter back into a
    /// function list).
    pub fn literal_includes(&self) -> Vec<&str> {
        self.rules
            .iter()
            .filter(|r| r.include && r.pattern.is_literal())
            .map(|r| r.pattern.as_str())
            .collect()
    }

    /// Serializes to the Score-P text format.
    pub fn to_text(&self) -> String {
        let mut out = String::from("SCOREP_REGION_NAMES_BEGIN\n");
        for r in &self.rules {
            let dir = if r.include { "INCLUDE" } else { "EXCLUDE" };
            out.push_str(&format!("  {dir} MANGLED {}\n", r.pattern));
        }
        out.push_str("SCOREP_REGION_NAMES_END\n");
        out
    }

    /// Parses the Score-P text format.
    pub fn parse(text: &str) -> Result<Self, FilterParseError> {
        let mut in_block = false;
        let mut saw_begin = false;
        let mut saw_end = false;
        let mut filter = Self::new();
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "SCOREP_REGION_NAMES_BEGIN" {
                in_block = true;
                saw_begin = true;
                continue;
            }
            if line == "SCOREP_REGION_NAMES_END" {
                in_block = false;
                saw_end = true;
                continue;
            }
            if !in_block {
                continue;
            }
            let mut parts = line.split_whitespace();
            let include = match parts.next() {
                Some("INCLUDE") => true,
                Some("EXCLUDE") => false,
                _ => {
                    return Err(FilterParseError::BadDirective {
                        line: ln + 1,
                        text: line.to_string(),
                    })
                }
            };
            for tok in parts {
                if tok == "MANGLED" {
                    continue;
                }
                filter.push_rule(Pattern::new(tok), include);
            }
        }
        if !saw_begin {
            return Err(FilterParseError::MissingBegin);
        }
        if !saw_end {
            return Err(FilterParseError::MissingEnd);
        }
        Ok(filter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// [`Pattern::matches`] calls made on this thread: the unit of
        /// work the lookup-cost tests count instead of timing.
        pub(super) static MATCH_CALLS: Cell<u64> = const { Cell::new(0) };
    }

    impl FilterFile {
        /// The definition of the filter's semantics, and the oracle the
        /// indexed [`FilterFile::is_included`] is checked against: walk
        /// every rule in order, the last match wins.
        fn is_included_linear(&self, name: &str) -> bool {
            let mut included = true;
            for r in &self.rules {
                if r.pattern.matches(name) {
                    included = r.include;
                }
            }
            included
        }
    }

    fn from_rules(rules: &[(bool, String)]) -> FilterFile {
        let mut f = FilterFile::new();
        for (include, text) in rules {
            if *include {
                f.include(Pattern::new(text.as_str()));
            } else {
                f.exclude(Pattern::new(text.as_str()));
            }
        }
        f
    }

    #[test]
    fn wildcard_matching() {
        assert!(Pattern::new("*").matches("anything"));
        assert!(Pattern::new("solve_*").matches("solve_segregated"));
        assert!(!Pattern::new("solve_*").matches("presolve_x"));
        assert!(Pattern::new("?oo").matches("foo"));
        assert!(!Pattern::new("?oo").matches("fooo"));
        assert!(Pattern::new("a*b*c").matches("a_x_b_y_c"));
        assert!(!Pattern::new("a*b*c").matches("a_x_c_y_b"));
        assert!(Pattern::new("").matches(""));
        assert!(!Pattern::new("").matches("x"));
    }

    #[test]
    fn last_match_wins_default_include() {
        let mut f = FilterFile::new();
        f.exclude(Pattern::new("*"));
        f.include(Pattern::new("keep_*"));
        f.exclude(Pattern::new("keep_not"));
        assert!(!f.is_included("anything"));
        assert!(f.is_included("keep_me"));
        assert!(!f.is_included("keep_not"));
        assert!(FilterFile::new().is_included("whatever"));
        // The same literal in both directions: the newest one decides.
        f.include(Pattern::new("keep_not"));
        assert!(f.is_included("keep_not"));
        f.exclude(Pattern::new("keep_not"));
        assert!(!f.is_included("keep_not"));
        // A literal overruled by a newer wildcard, and the reverse.
        f.include(Pattern::new("keep_n?t"));
        assert!(f.is_included("keep_not"));
        f.exclude(Pattern::new("keep_not"));
        assert!(!f.is_included("keep_not"));
        // Names carrying wildcard bytes are only ever matched by
        // wildcard rules.
        assert!(f.is_included("keep_*"));
        assert!(!f.is_included("?"));
    }

    #[test]
    fn lookup_work_does_not_grow_with_literal_rules() {
        let literals: Vec<String> = (0..5_000).map(|i| format!("_ZN4Foam5fn{i}Ev")).collect();
        let f = FilterFile::include_only(literals.iter().map(String::as_str));
        let names: Vec<String> = (0..40_000).map(|i| format!("_ZN4Foam5fn{i}Ev")).collect();
        MATCH_CALLS.with(|c| c.set(0));
        let included = names.iter().filter(|n| f.is_included(n)).count();
        let matches = MATCH_CALLS.with(Cell::get);
        assert_eq!(included, 5_000);
        // The linear walk made 40 000 × 5 001 of them.
        assert!(matches <= 40_000, "{matches} pattern matches");
    }

    #[test]
    fn include_only_selects_exactly() {
        let f = FilterFile::include_only(["a", "b"]);
        assert!(f.is_included("a"));
        assert!(f.is_included("b"));
        assert!(!f.is_included("c"));
        assert_eq!(f.literal_includes(), vec!["a", "b"]);
    }

    #[test]
    fn round_trip_text() {
        let f = FilterFile::include_only(["solve", "Amul"]);
        let text = f.to_text();
        let f2 = FilterFile::parse(&text).unwrap();
        assert_eq!(f, f2);
        assert!(text.contains("SCOREP_REGION_NAMES_BEGIN"));
        assert!(text.contains("EXCLUDE MANGLED *"));
        assert!(text.contains("INCLUDE MANGLED solve"));
    }

    #[test]
    fn parse_handles_comments_and_multiple_patterns() {
        let text = "\
# a comment
SCOREP_REGION_NAMES_BEGIN
  EXCLUDE *
  INCLUDE foo bar_*  baz
SCOREP_REGION_NAMES_END
";
        let f = FilterFile::parse(text).unwrap();
        assert!(f.is_included("foo"));
        assert!(f.is_included("bar_12"));
        assert!(f.is_included("baz"));
        assert!(!f.is_included("qux"));
    }

    #[test]
    fn parse_errors() {
        assert_eq!(
            FilterFile::parse("nothing here"),
            Err(FilterParseError::MissingBegin)
        );
        assert_eq!(
            FilterFile::parse("SCOREP_REGION_NAMES_BEGIN\nINCLUDE x\n"),
            Err(FilterParseError::MissingEnd)
        );
        assert!(matches!(
            FilterFile::parse("SCOREP_REGION_NAMES_BEGIN\nFROBNICATE x\nSCOREP_REGION_NAMES_END"),
            Err(FilterParseError::BadDirective { line: 2, .. })
        ));
    }

    proptest! {
        #[test]
        fn prop_literal_patterns_match_only_themselves(
            name in "[a-zA-Z_][a-zA-Z0-9_]{0,20}",
            other in "[a-zA-Z_][a-zA-Z0-9_]{0,20}",
        ) {
            let p = Pattern::new(name.clone());
            prop_assert!(p.matches(&name));
            prop_assert_eq!(p.matches(&other), name == other);
        }

        #[test]
        fn prop_filter_round_trip(names in proptest::collection::vec("[a-zA-Z_][a-zA-Z0-9_:]{0,24}", 0..20)) {
            let f = FilterFile::include_only(names.iter().map(String::as_str));
            let f2 = FilterFile::parse(&f.to_text()).unwrap();
            prop_assert_eq!(&f, &f2);
            for n in &names {
                prop_assert!(f2.is_included(n));
            }
        }

        #[test]
        fn prop_indexed_lookup_equals_linear_walk(
            rules in proptest::collection::vec((any::<bool>(), "[ab*?]{0,3}"), 0..14),
            names in proptest::collection::vec("[ab*?]{0,3}", 0..14),
        ) {
            let f = from_rules(&rules);
            // `parse` cannot see an empty pattern (no token on the line).
            let spellable: Vec<(bool, String)> =
                rules.iter().filter(|(_, t)| !t.is_empty()).cloned().collect();
            let reparsed = FilterFile::parse(&f.to_text()).unwrap();
            prop_assert_eq!(&reparsed, &from_rules(&spellable));
            // Every pattern text is also queried as a name.
            for name in names.iter().chain(rules.iter().map(|(_, t)| t)) {
                prop_assert_eq!(f.is_included(name), f.is_included_linear(name), "{:?} in {:?}", name, rules);
                prop_assert_eq!(reparsed.is_included(name), reparsed.is_included_linear(name), "{:?} in {:?}", name, spellable);
            }
        }

        #[test]
        fn prop_three_ways_to_build_a_selection_filter_agree(
            selected in proptest::collection::vec("[ab*?]{1,3}", 0..14),
            names in proptest::collection::vec("[ab*?]{0,3}", 0..14),
        ) {
            let only = FilterFile::include_only(selected.iter().map(String::as_str));
            let by_calls = from_rules(
                &std::iter::once((false, "*".to_string()))
                    .chain(selected.iter().map(|s| (true, s.clone())))
                    .collect::<Vec<_>>(),
            );
            let reparsed = FilterFile::parse(&only.to_text()).unwrap();
            prop_assert_eq!(&only, &by_calls);
            prop_assert_eq!(&only, &reparsed);
            for name in names.iter().chain(&selected) {
                let want = only.is_included_linear(name);
                prop_assert_eq!(only.is_included(name), want);
                prop_assert_eq!(by_calls.is_included(name), want);
                prop_assert_eq!(reparsed.is_included(name), want);
            }
        }

        #[test]
        fn prop_star_matches_everything(name in ".{0,40}") {
            // Exclude pathological NUL etc. — pattern API is str-based.
            prop_assert!(Pattern::new("*").matches(&name));
        }
    }
}
