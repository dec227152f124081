//! Pass-1 item model: a lightweight structural parse of one file.
//!
//! Built on [`crate::lexer`] output — still no `syn`, no type
//! information. The parser recognizes just enough item structure for the
//! cross-file rules: struct fields, enum variants, functions (with their
//! `impl` owner and the set of identifiers their bodies mention),
//! two-segment paths like `ObsEvent::Collision` (classified as
//! construction or pattern), map-iteration method calls, and
//! `name: HashMap<..>` type ascriptions. Everything inside
//! `#[cfg(test)]` items is ignored, mirroring the per-file rules.

use crate::lexer::Token;
use crate::rules::cfg_test_spans;
use std::collections::BTreeSet;

/// One named struct field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    pub name: String,
    pub line: u32,
    pub col: u32,
}

/// A `struct` definition (tuple and unit structs carry no fields).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDef {
    pub name: String,
    pub line: u32,
    pub fields: Vec<Field>,
}

/// One enum variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Variant {
    pub name: String,
    pub line: u32,
    pub col: u32,
}

/// An `enum` definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumDef {
    pub name: String,
    pub line: u32,
    pub variants: Vec<Variant>,
}

/// A function with a body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    /// The `impl` target type, if the fn lives in an impl block
    /// (`impl Trait for Foo` attributes to `Foo`).
    pub owner: Option<String>,
    pub name: String,
    pub line: u32,
    /// Sorted, deduplicated identifiers the body mentions. Identifiers
    /// immediately followed by `: _` are excluded: `seed: _` in a
    /// destructuring pattern explicitly discards the field, which must
    /// not count as consumption.
    pub body_idents: Vec<String>,
}

impl FnDef {
    /// Whether the body mentions `ident`.
    #[must_use]
    pub fn mentions(&self, ident: &str) -> bool {
        self.body_idents
            .binary_search_by(|s| s.as_str().cmp(ident))
            .is_ok()
    }
}

/// A two-segment path use `Head::Tail` with both segments capitalized
/// (an enum-variant shape), outside `use` statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathUse {
    pub head: String,
    pub tail: String,
    pub line: u32,
    pub col: u32,
    /// Heuristic: true when the site builds a value, false when it
    /// matches one (followed by `=>`/`|`/`=`, or braces containing `..`).
    pub construction: bool,
}

/// A `.keys()` / `.values()` / `.iter()`-family call with its receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterCall {
    pub recv: String,
    pub method: String,
    pub line: u32,
    pub col: u32,
}

/// Everything pass 1 extracts from one file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileItems {
    pub structs: Vec<StructDef>,
    pub enums: Vec<EnumDef>,
    pub fns: Vec<FnDef>,
    pub path_uses: Vec<PathUse>,
    pub iter_calls: Vec<IterCall>,
    /// Names ascribed a `HashMap`/`HashSet` type anywhere in the file
    /// (fields, locals, parameters).
    pub hash_typed: Vec<String>,
}

/// Iteration methods whose hash-ordered result order leaks into
/// control flow.
pub const MAP_ITER_METHODS: &[&str] = &[
    "keys",
    "values",
    "values_mut",
    "iter",
    "iter_mut",
    "into_iter",
    "drain",
];

/// Parses the item model from a token stream, skipping `#[cfg(test)]`
/// items.
#[must_use]
pub fn parse_items(tokens: &[Token]) -> FileItems {
    // cfg(test) spans are complete items, so dropping them keeps the
    // remaining stream brace-balanced.
    let spans = cfg_test_spans(tokens);
    let kept: Vec<&Token> = tokens
        .iter()
        .enumerate()
        .filter(|(i, _)| !spans.iter().any(|&(a, b)| *i >= a && *i <= b))
        .map(|(_, t)| t)
        .collect();

    let mut items = FileItems::default();
    parse_structure(&kept, None, &mut items);
    parse_flat(&kept, &mut items);
    items
}

/// Structural scan: structs, enums, impl blocks, fns. `owner` is the
/// enclosing impl target, if any.
fn parse_structure(tokens: &[&Token], owner: Option<&str>, items: &mut FileItems) {
    let mut i = 0;
    while i < tokens.len() {
        match tokens[i].ident() {
            Some("struct") if tokens.get(i + 1).and_then(|t| t.ident()).is_some() => {
                i = parse_struct(tokens, i, items);
            }
            Some("enum") if tokens.get(i + 1).and_then(|t| t.ident()).is_some() => {
                i = parse_enum(tokens, i, items);
            }
            Some("impl") => {
                i = parse_impl(tokens, i, items);
            }
            Some("fn") if tokens.get(i + 1).and_then(|t| t.ident()).is_some() => {
                i = parse_fn(tokens, i, owner, items);
            }
            _ => i += 1,
        }
    }
}

/// Skips a generic parameter list starting at a `<`, returning the index
/// just past the matching `>`. The lexer joins `>>`, which closes two
/// levels.
fn skip_generics(tokens: &[&Token], open: usize) -> usize {
    let mut depth = 0i64;
    let mut i = open;
    while i < tokens.len() {
        let t = tokens[i];
        if t.is_punct("<") {
            depth += 1;
        } else if t.is_punct("<<") {
            depth += 2;
        } else if t.is_punct(">") {
            depth -= 1;
        } else if t.is_punct(">>") {
            depth -= 2;
        }
        i += 1;
        if depth <= 0 {
            return i;
        }
    }
    i
}

/// Finds the matching close delimiter for the open one at `open`.
fn matching(tokens: &[&Token], open: usize, open_p: &str, close_p: &str) -> Option<usize> {
    let mut depth = 0i64;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(open_p) {
            depth += 1;
        } else if t.is_punct(close_p) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Parses `struct Name ...` at `i`; returns the index past the item.
fn parse_struct(tokens: &[&Token], i: usize, items: &mut FileItems) -> usize {
    let name_tok = tokens[i + 1];
    let name = name_tok.ident().unwrap_or_default().to_owned();
    let mut j = i + 2;
    if tokens.get(j).is_some_and(|t| t.is_punct("<")) {
        j = skip_generics(tokens, j);
    }
    // Skip a `where` clause up to the body or terminator.
    while j < tokens.len()
        && !tokens[j].is_punct("{")
        && !tokens[j].is_punct("(")
        && !tokens[j].is_punct(";")
    {
        j += 1;
    }
    let mut def = StructDef {
        name,
        line: name_tok.line,
        fields: Vec::new(),
    };
    match tokens.get(j) {
        Some(t) if t.is_punct("{") => {
            let close = matching(tokens, j, "{", "}").unwrap_or(tokens.len() - 1);
            parse_fields(&tokens[j + 1..close], &mut def.fields);
            items.structs.push(def);
            close + 1
        }
        Some(t) if t.is_punct("(") => {
            // Tuple struct: unnamed fields, nothing for the field rules.
            let close = matching(tokens, j, "(", ")").unwrap_or(tokens.len() - 1);
            items.structs.push(def);
            close + 1
        }
        _ => {
            items.structs.push(def);
            j + 1
        }
    }
}

/// Parses named fields from the tokens between a struct's braces.
fn parse_fields(body: &[&Token], out: &mut Vec<Field>) {
    let mut i = 0;
    while i < body.len() {
        // Field start: skip attributes and visibility.
        while i < body.len() {
            let t = body[i];
            if t.is_punct("#") && body.get(i + 1).is_some_and(|t| t.is_punct("[")) {
                i = matching(body, i + 1, "[", "]").map_or(body.len(), |c| c + 1);
            } else if t.ident() == Some("pub") {
                i += 1;
                if body.get(i).is_some_and(|t| t.is_punct("(")) {
                    i = matching(body, i, "(", ")").map_or(body.len(), |c| c + 1);
                }
            } else {
                break;
            }
        }
        let Some(name_tok) = body.get(i) else { break };
        if name_tok.ident().is_some() && body.get(i + 1).is_some_and(|t| t.is_punct(":")) {
            out.push(Field {
                name: name_tok.ident().unwrap_or_default().to_owned(),
                line: name_tok.line,
                col: name_tok.col,
            });
        }
        // Skip the type up to the next top-level comma. Commas nest
        // inside (), [], {} and generic <> pairs.
        let (mut paren, mut angle) = (0i64, 0i64);
        while i < body.len() {
            let t = body[i];
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                paren += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                paren -= 1;
            } else if t.is_punct("<") {
                angle += 1;
            } else if t.is_punct(">") {
                angle -= 1;
            } else if t.is_punct(">>") {
                angle -= 2;
            } else if t.is_punct(",") && paren == 0 && angle <= 0 {
                i += 1;
                break;
            }
            i += 1;
        }
    }
}

/// Parses `enum Name { ... }` at `i`; returns the index past the item.
fn parse_enum(tokens: &[&Token], i: usize, items: &mut FileItems) -> usize {
    let name_tok = tokens[i + 1];
    let mut j = i + 2;
    if tokens.get(j).is_some_and(|t| t.is_punct("<")) {
        j = skip_generics(tokens, j);
    }
    while j < tokens.len() && !tokens[j].is_punct("{") && !tokens[j].is_punct(";") {
        j += 1;
    }
    let mut def = EnumDef {
        name: name_tok.ident().unwrap_or_default().to_owned(),
        line: name_tok.line,
        variants: Vec::new(),
    };
    if tokens.get(j).is_some_and(|t| t.is_punct("{")) {
        let close = matching(tokens, j, "{", "}").unwrap_or(tokens.len() - 1);
        let body = &tokens[j + 1..close];
        let mut k = 0;
        while k < body.len() {
            // Variant start: skip attributes.
            while k < body.len()
                && body[k].is_punct("#")
                && body.get(k + 1).is_some_and(|t| t.is_punct("["))
            {
                k = matching(body, k + 1, "[", "]").map_or(body.len(), |c| c + 1);
            }
            let Some(tok) = body.get(k) else { break };
            if let Some(name) = tok.ident() {
                def.variants.push(Variant {
                    name: name.to_owned(),
                    line: tok.line,
                    col: tok.col,
                });
            }
            // Skip payload/discriminant to the next top-level comma.
            let mut depth = 0i64;
            while k < body.len() {
                let t = body[k];
                if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                    depth += 1;
                } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                    depth -= 1;
                } else if t.is_punct(",") && depth == 0 {
                    k += 1;
                    break;
                }
                k += 1;
            }
        }
        items.enums.push(def);
        close + 1
    } else {
        items.enums.push(def);
        j + 1
    }
}

/// Parses `impl ... { ... }` at `i`, attributing contained fns to the
/// impl target; returns the index past the block.
fn parse_impl(tokens: &[&Token], i: usize, items: &mut FileItems) -> usize {
    // Header: everything up to the body `{` at angle depth 0.
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.is_punct("<")) {
        j = skip_generics(tokens, j);
    }
    let header_start = j;
    let mut angle = 0i64;
    while j < tokens.len() {
        let t = tokens[j];
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle -= 1;
        } else if t.is_punct(">>") {
            angle -= 2;
        } else if t.is_punct("{") && angle <= 0 {
            break;
        }
        j += 1;
    }
    if j >= tokens.len() {
        return tokens.len();
    }
    let header = &tokens[header_start..j];
    // `impl Trait for Type` attributes to Type; plain `impl Type` to
    // Type. The owner is the last path segment before generics/where.
    let owner = impl_owner(header);
    let close = matching(tokens, j, "{", "}").unwrap_or(tokens.len() - 1);
    parse_structure(&tokens[j + 1..close], owner.as_deref(), items);
    close + 1
}

/// Extracts the impl target's base name from the header tokens.
fn impl_owner(header: &[&Token]) -> Option<String> {
    // Cut the header at `where` (a `for` inside a where clause is a
    // higher-ranked bound, not the trait/type separator).
    let where_at = header
        .iter()
        .position(|t| t.ident() == Some("where"))
        .unwrap_or(header.len());
    let header = &header[..where_at];
    let type_start = header
        .iter()
        .position(|t| t.ident() == Some("for"))
        .map_or(0, |f| f + 1);
    // The type is a path `a::b::Name<..>`: take the last ident before a
    // generic open or the end.
    let mut owner = None;
    let mut k = type_start;
    while k < header.len() {
        let t = header[k];
        if let Some(id) = t.ident() {
            if id != "dyn" && id != "mut" {
                owner = Some(id.to_owned());
            }
            k += 1;
        } else if t.is_punct("::") || t.is_punct("&") {
            k += 1;
        } else {
            break;
        }
    }
    owner
}

/// Parses `fn name ... { body }` at `i`; returns the index past it.
fn parse_fn(tokens: &[&Token], i: usize, owner: Option<&str>, items: &mut FileItems) -> usize {
    let name_tok = tokens[i + 1];
    let mut j = i + 2;
    if tokens.get(j).is_some_and(|t| t.is_punct("<")) {
        j = skip_generics(tokens, j);
    }
    // Parameter list.
    if tokens.get(j).is_some_and(|t| t.is_punct("(")) {
        j = matching(tokens, j, "(", ")").map_or(tokens.len(), |c| c + 1);
    }
    // Return type / where clause, up to the body or a trait-decl `;`.
    while j < tokens.len() && !tokens[j].is_punct("{") && !tokens[j].is_punct(";") {
        j += 1;
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct("{")) {
        return j + 1;
    }
    let close = matching(tokens, j, "{", "}").unwrap_or(tokens.len() - 1);
    let body = &tokens[j + 1..close];
    let mut idents = BTreeSet::new();
    for (k, t) in body.iter().enumerate() {
        let Some(id) = t.ident() else { continue };
        // `name: _` in a destructuring pattern discards the field; that
        // mention must not count as consumption.
        let discarded = body.get(k + 1).is_some_and(|n| n.is_punct(":"))
            && body.get(k + 2).is_some_and(|n| n.ident() == Some("_"));
        if !discarded {
            idents.insert(id.to_owned());
        }
    }
    items.fns.push(FnDef {
        owner: owner.map(str::to_owned),
        name: name_tok.ident().unwrap_or_default().to_owned(),
        line: name_tok.line,
        body_idents: idents.into_iter().collect(),
    });
    close + 1
}

/// Flat scan: path uses, iteration calls, hash-type ascriptions.
fn parse_flat(tokens: &[&Token], items: &mut FileItems) {
    let mut in_use = false;
    for (i, t) in tokens.iter().enumerate() {
        if t.ident() == Some("use") {
            in_use = true;
        } else if t.is_punct(";") {
            in_use = false;
        }

        // `Head::Tail` enum-variant-shaped paths.
        if !in_use && t.is_punct("::") && i >= 1 && tokens[i - 1].ident().is_some_and(starts_upper)
        {
            if let Some(tail) = tokens.get(i + 1).and_then(|t| t.ident()) {
                if starts_upper(tail) {
                    items.path_uses.push(PathUse {
                        head: tokens[i - 1].ident().unwrap_or_default().to_owned(),
                        tail: tail.to_owned(),
                        line: tokens[i + 1].line,
                        col: tokens[i + 1].col,
                        construction: is_construction(tokens, i + 1),
                    });
                }
            }
        }

        // `recv.method(` iteration calls.
        if t.is_punct(".") && i >= 1 {
            if let (Some(recv), Some(method)) = (
                tokens[i - 1].ident(),
                tokens.get(i + 1).and_then(|t| t.ident()),
            ) {
                if MAP_ITER_METHODS.contains(&method)
                    && tokens.get(i + 2).is_some_and(|t| t.is_punct("("))
                {
                    items.iter_calls.push(IterCall {
                        recv: recv.to_owned(),
                        method: method.to_owned(),
                        line: tokens[i + 1].line,
                        col: tokens[i + 1].col,
                    });
                }
            }
        }

        // `name: HashMap<..>` / `name: path::HashSet<..>` ascriptions.
        if t.is_punct(":") && i >= 1 {
            if let Some(name) = tokens[i - 1].ident() {
                let mut k = i + 1;
                let mut hash = false;
                while k < tokens.len() {
                    let t = tokens[k];
                    if matches!(t.ident(), Some("mut" | "dyn")) || t.is_punct("&") {
                        k += 1;
                    } else if let Some(seg) = t.ident() {
                        if seg == "HashMap" || seg == "HashSet" {
                            hash = true;
                        }
                        k += 1;
                        if !tokens.get(k).is_some_and(|t| t.is_punct("::")) {
                            break;
                        }
                        k += 1;
                    } else {
                        break;
                    }
                }
                if hash {
                    items.hash_typed.push(name.to_owned());
                }
            }
        }
    }
    items.hash_typed.sort();
    items.hash_typed.dedup();
}

fn starts_upper(s: &str) -> bool {
    s.chars().next().is_some_and(char::is_uppercase)
}

/// Classifies the path use whose tail ident sits at `tail_idx`:
/// construction builds a value, a pattern matches one.
fn is_construction(tokens: &[&Token], tail_idx: usize) -> bool {
    let after_payload = match tokens.get(tail_idx + 1) {
        Some(t) if t.is_punct("{") => {
            let Some(close) = matching(tokens, tail_idx + 1, "{", "}") else {
                return false;
            };
            // `..` at the payload's top level is a rest pattern
            // (`ObsEvent::Decode { .. }`) — never construction syntax
            // for an enum variant.
            let mut depth = 0i64;
            for t in &tokens[tail_idx + 2..close] {
                if t.is_punct("{") || t.is_punct("(") || t.is_punct("[") {
                    depth += 1;
                } else if t.is_punct("}") || t.is_punct(")") || t.is_punct("]") {
                    depth -= 1;
                } else if t.is_punct("..") && depth == 0 {
                    return false;
                }
            }
            close + 1
        }
        Some(t) if t.is_punct("(") => match matching(tokens, tail_idx + 1, "(", ")") {
            Some(close) => close + 1,
            None => return false,
        },
        _ => tail_idx + 1,
    };
    !matches!(
        tokens.get(after_payload),
        Some(t) if t.is_punct("=>") || t.is_punct("|") || t.is_punct("=")
    )
}

#[cfg(test)]
mod tests {
    use super::parse_items;
    use crate::lexer::lex;

    fn items(src: &str) -> super::FileItems {
        parse_items(&lex(src).tokens)
    }

    #[test]
    fn struct_fields_with_attrs_and_visibility() {
        let src = "#[derive(Debug)]\npub struct Cfg<T: Clone> {\n    /// doc\n    pub map: BTreeMap<u32, u64>,\n    #[allow(dead_code)]\n    pub(crate) inner: Vec<(u8, u8)>,\n    plain: T,\n}\n";
        let it = items(src);
        assert_eq!(it.structs.len(), 1);
        let s = &it.structs[0];
        assert_eq!(s.name, "Cfg");
        let names: Vec<&str> = s.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["map", "inner", "plain"]);
        assert_eq!(s.fields[0].line, 4);
    }

    #[test]
    fn tuple_and_unit_structs_have_no_fields() {
        let it = items("struct A(u32, u64);\nstruct B;\n");
        assert_eq!(it.structs.len(), 2);
        assert!(it.structs.iter().all(|s| s.fields.is_empty()));
    }

    #[test]
    fn enum_variants_with_payloads() {
        let src = "pub enum E {\n    Unit,\n    #[doc = \"x\"]\n    Tup(u32),\n    Struct { a: u8, b: u8 },\n    Disc = 4,\n}\n";
        let it = items(src);
        assert_eq!(it.enums.len(), 1);
        let names: Vec<&str> = it.enums[0]
            .variants
            .iter()
            .map(|v| v.name.as_str())
            .collect();
        assert_eq!(names, ["Unit", "Tup", "Struct", "Disc"]);
    }

    #[test]
    fn fns_attribute_to_their_impl_owner() {
        let src = "impl Cfg {\n    pub fn digest(&self) -> String { fnv(self.seed) }\n}\nimpl fmt::Display for Cfg {\n    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { write!(f, \"x\") }\n}\nfn free() { helper() }\n";
        let it = items(src);
        let owners: Vec<(Option<&str>, &str)> = it
            .fns
            .iter()
            .map(|f| (f.owner.as_deref(), f.name.as_str()))
            .collect();
        assert_eq!(
            owners,
            [
                (Some("Cfg"), "digest"),
                (Some("Cfg"), "fmt"),
                (None, "free")
            ]
        );
        assert!(it.fns[0].mentions("seed"));
        assert!(!it.fns[0].mentions("helper"));
        assert!(it.fns[2].mentions("helper"));
    }

    #[test]
    fn discarded_destructuring_does_not_count_as_mention() {
        let src = "fn f(c: Cfg) {\n    let Cfg { seed: _, rate } = c;\n    use_it(rate);\n}\n";
        let it = items(src);
        assert!(!it.fns[0].mentions("seed"));
        assert!(it.fns[0].mentions("rate"));
    }

    #[test]
    fn path_uses_distinguish_construction_from_pattern() {
        let src = "fn f(e: ObsEvent) {\n    match e {\n        ObsEvent::Decode { .. } => {}\n        ObsEvent::Collision { victim_tx, .. } => { let _ = victim_tx; }\n        _ => {}\n    }\n    emit(ObsEvent::Decode { tx: 1, clean: true });\n    if let ObsEvent::CtsTx { dst, xid } = other() { drop((dst, xid)); }\n}\n";
        let it = items(src);
        let find = |tail: &str, construction: bool| {
            it.path_uses
                .iter()
                .filter(|p| {
                    p.head == "ObsEvent" && p.tail == tail && p.construction == construction
                })
                .count()
        };
        assert_eq!(find("Decode", false), 1, "match arm is a pattern");
        assert_eq!(find("Decode", true), 1, "emit() is a construction");
        assert_eq!(find("Collision", false), 1, "rest pattern is a pattern");
        assert_eq!(find("CtsTx", false), 1, "if-let binding is a pattern");
    }

    #[test]
    fn use_statements_are_not_path_uses() {
        let it = items("use ObsEvent::CtsTx;\nfn f() { g(ObsEvent::CtsTx { dst: d, xid: x }); }\n");
        assert_eq!(it.path_uses.len(), 1);
        assert!(it.path_uses[0].construction);
        assert_eq!(it.path_uses[0].line, 2);
    }

    #[test]
    fn iter_calls_and_hash_ascriptions() {
        let src = "struct S { pub counts: HashMap<u32, u64>, names: std::collections::HashSet<String> }\nfn f(s: &S) {\n    for k in s.counts.keys() { use_it(k); }\n    let v: Vec<u32> = s.items.iter().collect();\n}\n";
        let it = items(src);
        assert_eq!(it.hash_typed, ["counts", "names"]);
        let calls: Vec<(&str, &str)> = it
            .iter_calls
            .iter()
            .map(|c| (c.recv.as_str(), c.method.as_str()))
            .collect();
        assert_eq!(calls, [("counts", "keys"), ("items", "iter")]);
    }

    #[test]
    fn cfg_test_items_are_invisible() {
        let src = "struct Real { pub a: u32 }\n#[cfg(test)]\nmod tests {\n    struct Fake { pub b: u32 }\n    fn t() { ObsEvent::Ghost { x: 1 }; }\n}\n";
        let it = items(src);
        assert_eq!(it.structs.len(), 1);
        assert_eq!(it.structs[0].name, "Real");
        assert!(it.path_uses.is_empty());
    }
}
