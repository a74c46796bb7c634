//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the offline serde
//! shim.
//!
//! crates.io is unreachable in this build environment, so there is no
//! `syn`/`quote`; instead this crate walks the raw [`proc_macro`] token
//! stream directly. It supports exactly the shapes the workspace derives on:
//!
//! * structs with named fields (honouring `#[serde(skip)]` and
//!   `#[serde(skip_serializing_if = "path")]`),
//! * tuple structs (newtypes serialize transparently, like real serde),
//! * unit structs,
//! * enums with unit / tuple / struct variants (externally tagged, the
//!   real-serde default JSON layout).
//!
//! Generics are intentionally unsupported — no derived type in the
//! workspace is generic — and hitting one fails the build loudly rather
//! than silently producing wrong code.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// A parsed field of a struct or struct variant.
struct Field {
    name: String,
    attrs: FieldAttrs,
}

/// The `#[serde(...)]` options of one field.
#[derive(Default)]
struct FieldAttrs {
    skip: bool,
    /// `skip_serializing_if` predicate path: the field is left out of the
    /// serialized map when `path(&field)` is true.
    skip_if: Option<String>,
}

/// The shapes of a struct body or an enum variant payload.
enum Fields {
    Unit,
    Named(Vec<Field>),
    Tuple(usize),
}

/// A parsed `struct` or `enum` item.
enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<(String, Fields)>,
    },
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let code = match &item {
        Item::Struct { name, fields } => gen_struct_serialize(name, fields),
        Item::Enum { name, variants } => gen_enum_serialize(name, variants),
    };
    code.parse()
        .expect("serde_derive generated invalid Serialize impl")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let code = match &item {
        Item::Struct { name, fields } => gen_struct_deserialize(name, fields),
        Item::Enum { name, variants } => gen_enum_deserialize(name, variants),
    };
    code.parse()
        .expect("serde_derive generated invalid Deserialize impl")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Consume leading attributes (`#[...]`, including expanded doc comments)
/// and return the `#[serde(...)]` options among them.
fn skip_attributes(
    tokens: &mut std::iter::Peekable<proc_macro::token_stream::IntoIter>,
) -> FieldAttrs {
    let mut attrs = FieldAttrs::default();
    while matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        tokens.next();
        match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                if let [TokenTree::Ident(tag), TokenTree::Group(args)] = &inner[..] {
                    if tag.to_string() == "serde" {
                        parse_serde_args(args.stream(), &mut attrs);
                    }
                }
            }
            other => panic!("serde_derive: malformed attribute, found {other:?}"),
        }
    }
    attrs
}

/// Read `skip` and `skip_serializing_if = "path"` out of `serde(...)`.
fn parse_serde_args(args: TokenStream, attrs: &mut FieldAttrs) {
    let args: Vec<TokenTree> = args.into_iter().collect();
    for (i, token) in args.iter().enumerate() {
        let TokenTree::Ident(ident) = token else {
            continue;
        };
        match ident.to_string().as_str() {
            "skip" => attrs.skip = true,
            "skip_serializing_if" => match args.get(i + 2) {
                Some(TokenTree::Literal(lit)) => {
                    attrs.skip_if = Some(lit.to_string().trim_matches('"').to_string());
                }
                other => {
                    panic!("serde_derive: skip_serializing_if needs a path string, found {other:?}")
                }
            },
            _ => {}
        }
    }
}

/// Consume an optional visibility qualifier (`pub`, `pub(crate)`, ...).
fn skip_visibility(tokens: &mut std::iter::Peekable<proc_macro::token_stream::IntoIter>) {
    if matches!(tokens.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        tokens.next();
        if matches!(
            tokens.peek(),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
        ) {
            tokens.next();
        }
    }
}

fn parse_item(input: TokenStream) -> Item {
    let mut tokens = input.into_iter().peekable();
    skip_attributes(&mut tokens);
    skip_visibility(&mut tokens);

    let kind = match tokens.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("serde_derive: expected `struct` or `enum`, found {other:?}"),
    };
    let name = match tokens.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("serde_derive: expected item name, found {other:?}"),
    };
    if matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive shim does not support generic type `{name}`");
    }

    match kind.as_str() {
        "struct" => {
            let fields = match tokens.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream()))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g.stream()))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
                other => panic!("serde_derive: unexpected struct body {other:?}"),
            };
            Item::Struct { name, fields }
        }
        "enum" => {
            let body = match tokens.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => panic!("serde_derive: expected enum body, found {other:?}"),
            };
            Item::Enum {
                name,
                variants: parse_variants(body),
            }
        }
        other => panic!("serde_derive: cannot derive for `{other}` items"),
    }
}

/// Parse `name: Type, ...` field lists (struct bodies and struct variants).
fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut tokens = stream.into_iter().peekable();
    loop {
        if tokens.peek().is_none() {
            break;
        }
        let attrs = skip_attributes(&mut tokens);
        skip_visibility(&mut tokens);
        let name = match tokens.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            other => panic!("serde_derive: expected field name, found {other:?}"),
        };
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde_derive: expected `:` after field `{name}`, found {other:?}"),
        }
        consume_type(&mut tokens);
        fields.push(Field { name, attrs });
    }
    fields
}

/// Consume one type, stopping at a top-level `,` (which is also consumed)
/// or end of stream. Tracks `<`/`>` nesting manually; parens/brackets are
/// already single groups in the token tree.
fn consume_type(tokens: &mut std::iter::Peekable<proc_macro::token_stream::IntoIter>) {
    let mut angle_depth = 0usize;
    for token in tokens.by_ref() {
        if let TokenTree::Punct(p) = &token {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth = angle_depth.saturating_sub(1),
                ',' if angle_depth == 0 => return,
                _ => {}
            }
        }
    }
}

/// Count the fields of a tuple struct / tuple variant payload.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut tokens = stream.into_iter().peekable();
    let mut count = 0usize;
    while tokens.peek().is_some() {
        skip_attributes(&mut tokens);
        skip_visibility(&mut tokens);
        if tokens.peek().is_none() {
            break; // trailing comma
        }
        consume_type(&mut tokens);
        count += 1;
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<(String, Fields)> {
    let mut variants = Vec::new();
    let mut tokens = stream.into_iter().peekable();
    loop {
        if tokens.peek().is_none() {
            break;
        }
        skip_attributes(&mut tokens);
        let name = match tokens.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            other => panic!("serde_derive: expected variant name, found {other:?}"),
        };
        let fields = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                tokens.next();
                Fields::Tuple(n)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let f = parse_named_fields(g.stream());
                tokens.next();
                Fields::Named(f)
            }
            _ => Fields::Unit,
        };
        // Consume the separating comma, if any. Explicit discriminants
        // (`Variant = 3`) are not supported by the shim.
        match tokens.next() {
            None => {
                variants.push((name, fields));
                break;
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => variants.push((name, fields)),
            other => panic!("serde_derive: unexpected token after variant `{name}`: {other:?}"),
        }
    }
    variants
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn gen_struct_serialize(name: &str, fields: &Fields) -> String {
    let body = match fields {
        Fields::Unit => "::serde::Content::Null".to_string(),
        Fields::Named(fields) => {
            let mut pushes = String::new();
            for f in fields.iter().filter(|f| !f.attrs.skip) {
                let push = format!(
                    "__m.push((String::from(\"{0}\"), ::serde::Serialize::to_content(&self.{0})));\n",
                    f.name
                );
                match &f.attrs.skip_if {
                    Some(path) => {
                        pushes.push_str(&format!("if !{path}(&self.{}) {{ {push} }}\n", f.name))
                    }
                    None => pushes.push_str(&push),
                }
            }
            format!("let mut __m = Vec::new();\n{pushes}::serde::Content::Map(__m)")
        }
        Fields::Tuple(1) => "::serde::Serialize::to_content(&self.0)".to_string(),
        Fields::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_content(&self.{i})"))
                .collect();
            format!("::serde::Content::Seq(vec![{}])", items.join(", "))
        }
    };
    format!(
        "#[automatically_derived]\nimpl ::serde::Serialize for {name} {{\n\
         fn to_content(&self) -> ::serde::Content {{\n{body}\n}}\n}}\n"
    )
}

fn gen_struct_deserialize(name: &str, fields: &Fields) -> String {
    let body = match fields {
        Fields::Unit => format!("let _ = __c; Ok({name})"),
        Fields::Named(fields) => {
            let mut inits = String::new();
            for f in fields {
                if f.attrs.skip {
                    inits.push_str(&format!("{}: Default::default(),\n", f.name));
                } else {
                    inits.push_str(&format!(
                        "{0}: ::serde::field(__m, \"{0}\", \"{name}\")?,\n",
                        f.name
                    ));
                }
            }
            format!(
                "let __m = __c.as_map().ok_or_else(|| \
                 ::serde::DeError::expected(\"map for struct {name}\"))?;\n\
                 Ok({name} {{\n{inits}}})"
            )
        }
        Fields::Tuple(1) => format!("Ok({name}(::serde::Deserialize::from_content(__c)?))"),
        Fields::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_content(&__s[{i}])?"))
                .collect();
            format!(
                "let __s = __c.as_seq().ok_or_else(|| \
                 ::serde::DeError::expected(\"sequence for struct {name}\"))?;\n\
                 if __s.len() != {n} {{ return Err(::serde::DeError::expected(\
                 \"{n} elements for struct {name}\")); }}\n\
                 Ok({name}({}))",
                items.join(", ")
            )
        }
    };
    format!(
        "#[automatically_derived]\nimpl ::serde::Deserialize for {name} {{\n\
         fn from_content(__c: &::serde::Content) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
         {body}\n}}\n}}\n"
    )
}

fn gen_enum_serialize(name: &str, variants: &[(String, Fields)]) -> String {
    let mut arms = String::new();
    for (vname, fields) in variants {
        match fields {
            Fields::Unit => arms.push_str(&format!(
                "{name}::{vname} => ::serde::Content::Str(String::from(\"{vname}\")),\n"
            )),
            Fields::Tuple(1) => arms.push_str(&format!(
                "{name}::{vname}(__f0) => ::serde::Content::Map(vec![(String::from(\"{vname}\"), \
                 ::serde::Serialize::to_content(__f0))]),\n"
            )),
            Fields::Tuple(n) => {
                let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                let items: Vec<String> = binds
                    .iter()
                    .map(|b| format!("::serde::Serialize::to_content({b})"))
                    .collect();
                arms.push_str(&format!(
                    "{name}::{vname}({}) => ::serde::Content::Map(vec![(String::from(\"{vname}\"), \
                     ::serde::Content::Seq(vec![{}]))]),\n",
                    binds.join(", "),
                    items.join(", ")
                ));
            }
            Fields::Named(fs) => {
                let binds: Vec<String> = fs.iter().map(|f| f.name.clone()).collect();
                let items: Vec<String> = fs
                    .iter()
                    .map(|f| {
                        format!(
                            "(String::from(\"{0}\"), ::serde::Serialize::to_content({0}))",
                            f.name
                        )
                    })
                    .collect();
                arms.push_str(&format!(
                    "{name}::{vname} {{ {} }} => ::serde::Content::Map(vec![(String::from(\"{vname}\"), \
                     ::serde::Content::Map(vec![{}]))]),\n",
                    binds.join(", "),
                    items.join(", ")
                ));
            }
        }
    }
    format!(
        "#[automatically_derived]\nimpl ::serde::Serialize for {name} {{\n\
         fn to_content(&self) -> ::serde::Content {{\nmatch self {{\n{arms}}}\n}}\n}}\n"
    )
}

fn gen_enum_deserialize(name: &str, variants: &[(String, Fields)]) -> String {
    let mut unit_arms = String::new();
    let mut payload_arms = String::new();
    for (vname, fields) in variants {
        match fields {
            Fields::Unit => unit_arms.push_str(&format!("\"{vname}\" => Ok({name}::{vname}),\n")),
            Fields::Tuple(1) => payload_arms.push_str(&format!(
                "\"{vname}\" => Ok({name}::{vname}(::serde::Deserialize::from_content(__v)?)),\n"
            )),
            Fields::Tuple(n) => {
                let items: Vec<String> = (0..*n)
                    .map(|i| format!("::serde::Deserialize::from_content(&__s[{i}])?"))
                    .collect();
                payload_arms.push_str(&format!(
                    "\"{vname}\" => {{\n\
                     let __s = __v.as_seq().ok_or_else(|| ::serde::DeError::expected(\
                     \"sequence for variant {name}::{vname}\"))?;\n\
                     if __s.len() != {n} {{ return Err(::serde::DeError::expected(\
                     \"{n} elements for variant {name}::{vname}\")); }}\n\
                     Ok({name}::{vname}({}))\n}}\n",
                    items.join(", ")
                ));
            }
            Fields::Named(fs) => {
                let inits: Vec<String> = fs
                    .iter()
                    .map(|f| {
                        if f.attrs.skip {
                            format!("{}: Default::default()", f.name)
                        } else {
                            format!(
                                "{0}: ::serde::field(__m, \"{0}\", \"{name}::{vname}\")?",
                                f.name
                            )
                        }
                    })
                    .collect();
                payload_arms.push_str(&format!(
                    "\"{vname}\" => {{\n\
                     let __m = __v.as_map().ok_or_else(|| ::serde::DeError::expected(\
                     \"map for variant {name}::{vname}\"))?;\n\
                     Ok({name}::{vname} {{ {} }})\n}}\n",
                    inits.join(", ")
                ));
            }
        }
    }
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
         #[allow(unused_variables)]\n\
         fn from_content(__c: &::serde::Content) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
         if let ::serde::Content::Str(__s) = __c {{\n\
             return match __s.as_str() {{\n{unit_arms}\
             __other => Err(::serde::DeError::unknown_variant(__other, \"{name}\")),\n}};\n\
         }}\n\
         if let ::serde::Content::Map(__m) = __c {{\n\
             if __m.len() == 1 {{\n\
                 let (__k, __v) = &__m[0];\n\
                 return match __k.as_str() {{\n{payload_arms}\
                 __other => Err(::serde::DeError::unknown_variant(__other, \"{name}\")),\n}};\n\
             }}\n\
         }}\n\
         Err(::serde::DeError::expected(\"externally tagged enum {name}\"))\n\
         }}\n}}\n"
    )
}
