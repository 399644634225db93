//! Offline stand-in for `serde_derive`: `#[derive(Serialize, Deserialize)]`
//! for the stand-in `serde`, written against `proc_macro` alone because
//! `syn` and `quote` are not available either. The item is parsed by hand and
//! the impl is rendered as text.
//!
//! Supported: structs (named, tuple, unit) and enums (externally tagged) with
//! type, lifetime and const parameters; field attributes `skip`, `default`,
//! `default = "path"`, `rename = "name"`; variant attribute `rename`;
//! container attributes `from = "T"`, `into = "T"`. Anything else in a
//! `#[serde(..)]` attribute is a compile error, never silently ignored.

extern crate proc_macro;

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::fmt::Write;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, render_serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, render_deserialize)
}

fn expand(input: TokenStream, render: fn(&Item) -> String) -> TokenStream {
    let rendered = parse_item(input).map(|item| render(&item));
    match rendered {
        Ok(code) => code
            .parse()
            .expect("serde_derive stand-in rendered invalid Rust"),
        Err(msg) => format!("::core::compile_error!({msg:?});").parse().unwrap(),
    }
}

// ---------------------------------------------------------------- the model

#[derive(Default)]
struct Attrs {
    skip: bool,
    /// `Some(None)` is `default`, `Some(Some(path))` is `default = "path"`.
    default: Option<Option<String>>,
    rename: Option<String>,
    from: Option<String>,
    into: Option<String>,
}

enum Param {
    Lifetime { name: String, bounds: String },
    Type { name: String, bounds: String },
    Const { name: String, ty: String },
}

struct Field {
    /// Field name as written (`r#type` included), `None` in a tuple.
    ident: Option<String>,
    attrs: Attrs,
}

impl Field {
    fn key(&self) -> String {
        let ident = self.ident.as_deref().unwrap_or_default();
        self.attrs
            .rename
            .clone()
            .unwrap_or_else(|| ident.trim_start_matches("r#").to_string())
    }
}

enum Fields {
    Named(Vec<Field>),
    Tuple(Vec<Field>),
    Unit,
}

struct Variant {
    ident: String,
    attrs: Attrs,
    fields: Fields,
}

impl Variant {
    fn key(&self) -> String {
        self.attrs
            .rename
            .clone()
            .unwrap_or_else(|| self.ident.clone())
    }
}

enum Data {
    Struct(Fields),
    Enum(Vec<Variant>),
}

struct Item {
    ident: String,
    attrs: Attrs,
    params: Vec<Param>,
    where_clause: String,
    data: Data,
}

// --------------------------------------------------------------- the parser

struct Cursor {
    tokens: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(stream: TokenStream) -> Self {
        Cursor {
            tokens: stream.into_iter().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<TokenTree> {
        let token = self.tokens.get(self.pos).cloned();
        self.pos += 1;
        token
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn is_punct(&self, ch: char) -> bool {
        matches!(self.peek(), Some(TokenTree::Punct(p)) if p.as_char() == ch)
    }

    fn is_ident(&self, name: &str) -> bool {
        matches!(self.peek(), Some(TokenTree::Ident(i)) if i.to_string() == name)
    }

    fn eat_punct(&mut self, ch: char) -> bool {
        let hit = self.is_punct(ch);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn ident(&mut self) -> Result<String, String> {
        match self.bump() {
            Some(TokenTree::Ident(i)) => Ok(i.to_string()),
            other => Err(format!("expected an identifier, found {other:?}")),
        }
    }

    /// Leading `#[..]` attributes, folding the `serde` ones into one `Attrs`.
    fn attrs(&mut self) -> Result<Attrs, String> {
        let mut attrs = Attrs::default();
        while self.is_punct('#') {
            self.pos += 1;
            let Some(TokenTree::Group(group)) = self.bump() else {
                return Err("expected `[` after `#`".into());
            };
            let mut inner = Cursor::new(group.stream());
            if !inner.is_ident("serde") {
                continue;
            }
            inner.pos += 1;
            let Some(TokenTree::Group(list)) = inner.bump() else {
                return Err("expected `#[serde(..)]`".into());
            };
            parse_serde_meta(Cursor::new(list.stream()), &mut attrs)?;
        }
        Ok(attrs)
    }

    fn visibility(&mut self) {
        if self.is_ident("pub") {
            self.pos += 1;
            if matches!(self.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
            {
                self.pos += 1;
            }
        }
    }

    /// Tokens up to a `,` outside any `<..>`, rendered as text. Consumes the
    /// comma. Brackets, braces and parentheses arrive as single groups.
    fn until_comma(&mut self) -> String {
        let mut depth = 0usize;
        let mut prev_dash = false;
        let mut out: Vec<TokenTree> = Vec::new();
        while let Some(token) = self.peek() {
            if let TokenTree::Punct(p) = token {
                match p.as_char() {
                    ',' if depth == 0 => {
                        self.pos += 1;
                        break;
                    }
                    '<' => depth += 1,
                    '>' if !prev_dash => depth = depth.saturating_sub(1),
                    _ => {}
                }
                prev_dash = p.as_char() == '-';
            } else {
                prev_dash = false;
            }
            out.push(self.bump().unwrap());
        }
        out.into_iter().collect::<TokenStream>().to_string()
    }
}

fn parse_serde_meta(mut list: Cursor, attrs: &mut Attrs) -> Result<(), String> {
    while !list.at_end() {
        let name = list.ident()?;
        let value = if list.eat_punct('=') {
            match list.bump() {
                Some(TokenTree::Literal(lit)) => {
                    let text = lit.to_string();
                    let inner = text
                        .strip_prefix('"')
                        .and_then(|t| t.strip_suffix('"'))
                        .ok_or_else(|| format!("serde({name} = ..) needs a string literal"))?;
                    Some(inner.to_string())
                }
                other => {
                    return Err(format!(
                        "serde({name} = ..) needs a literal, found {other:?}"
                    ))
                }
            }
        } else {
            None
        };
        match (name.as_str(), value) {
            ("skip", None) => attrs.skip = true,
            ("default", value) => attrs.default = Some(value),
            ("rename", Some(v)) => attrs.rename = Some(v),
            ("from", Some(v)) => attrs.from = Some(v),
            ("into", Some(v)) => attrs.into = Some(v),
            (other, _) => {
                return Err(format!(
                    "the offline serde stand-in does not support #[serde({other})]"
                ))
            }
        }
        if !list.at_end() && !list.eat_punct(',') {
            return Err("expected `,` in #[serde(..)]".into());
        }
    }
    Ok(())
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut cur = Cursor::new(input);
    let attrs = cur.attrs()?;
    cur.visibility();
    let keyword = cur.ident()?;
    let ident = cur.ident()?;
    let params = if cur.is_punct('<') {
        parse_generics(&mut cur)?
    } else {
        Vec::new()
    };
    let mut where_clause = parse_where(&mut cur);
    let data = match keyword.as_str() {
        "struct" => match cur.bump() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Data::Struct(Fields::Named(parse_named(g.stream())?))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                where_clause = parse_where(&mut cur);
                Data::Struct(Fields::Tuple(parse_tuple(g.stream())?))
            }
            _ => Data::Struct(Fields::Unit),
        },
        "enum" => match cur.bump() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Data::Enum(parse_variants(g.stream())?)
            }
            other => return Err(format!("expected enum body, found {other:?}")),
        },
        other => return Err(format!("cannot derive serde traits for `{other}` items")),
    };
    Ok(Item {
        ident,
        attrs,
        params,
        where_clause,
        data,
    })
}

fn parse_generics(cur: &mut Cursor) -> Result<Vec<Param>, String> {
    cur.pos += 1; // `<`
    let mut depth = 1usize;
    let mut prev_dash = false;
    let mut inner: Vec<TokenTree> = Vec::new();
    loop {
        let token = cur.bump().ok_or("unclosed generics")?;
        if let TokenTree::Punct(p) = &token {
            match p.as_char() {
                '<' => depth += 1,
                '>' if !prev_dash => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            prev_dash = p.as_char() == '-';
        } else {
            prev_dash = false;
        }
        inner.push(token);
    }
    let mut list = Cursor::new(inner.into_iter().collect());
    let mut params = Vec::new();
    while !list.at_end() {
        let mut one = Cursor::new(list.until_comma().parse().map_err(|e| format!("{e:?}"))?);
        if one.eat_punct('\'') {
            let name = format!("'{}", one.ident()?);
            one.eat_punct(':');
            params.push(Param::Lifetime {
                name,
                bounds: rest(&mut one, None),
            });
        } else if one.is_ident("const") {
            one.pos += 1;
            let name = one.ident()?;
            one.eat_punct(':');
            params.push(Param::Const {
                name,
                ty: rest(&mut one, Some('=')),
            });
        } else {
            let name = one.ident()?;
            one.eat_punct(':');
            params.push(Param::Type {
                name,
                bounds: rest(&mut one, Some('=')),
            });
        }
    }
    Ok(params)
}

/// The remaining tokens as text, up to `stop` (a default value) if given.
fn rest(cur: &mut Cursor, stop: Option<char>) -> String {
    let mut out: Vec<TokenTree> = Vec::new();
    while let Some(token) = cur.bump() {
        if matches!((&token, stop), (TokenTree::Punct(p), Some(ch)) if p.as_char() == ch) {
            break;
        }
        out.push(token);
    }
    out.into_iter().collect::<TokenStream>().to_string()
}

fn parse_where(cur: &mut Cursor) -> String {
    if !cur.is_ident("where") {
        return String::new();
    }
    cur.pos += 1;
    let mut out: Vec<TokenTree> = Vec::new();
    while let Some(token) = cur.peek() {
        let body = match token {
            TokenTree::Group(g) => g.delimiter() == Delimiter::Brace,
            TokenTree::Punct(p) => p.as_char() == ';',
            _ => false,
        };
        if body {
            break;
        }
        out.push(cur.bump().unwrap());
    }
    out.into_iter().collect::<TokenStream>().to_string()
}

fn parse_named(stream: TokenStream) -> Result<Vec<Field>, String> {
    let mut cur = Cursor::new(stream);
    let mut fields = Vec::new();
    while !cur.at_end() {
        let attrs = cur.attrs()?;
        cur.visibility();
        let ident = cur.ident()?;
        if !cur.eat_punct(':') {
            return Err(format!("expected `:` after field `{ident}`"));
        }
        cur.until_comma();
        fields.push(Field {
            ident: Some(ident),
            attrs,
        });
    }
    Ok(fields)
}

fn parse_tuple(stream: TokenStream) -> Result<Vec<Field>, String> {
    let mut cur = Cursor::new(stream);
    let mut fields = Vec::new();
    while !cur.at_end() {
        let attrs = cur.attrs()?;
        cur.visibility();
        cur.until_comma();
        fields.push(Field { ident: None, attrs });
    }
    Ok(fields)
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let mut cur = Cursor::new(stream);
    let mut variants = Vec::new();
    while !cur.at_end() {
        let attrs = cur.attrs()?;
        let ident = cur.ident()?;
        let fields = match cur.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = Fields::Named(parse_named(g.stream())?);
                cur.pos += 1;
                fields
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let fields = Fields::Tuple(parse_tuple(g.stream())?);
                cur.pos += 1;
                fields
            }
            _ => Fields::Unit,
        };
        cur.until_comma(); // an explicit discriminant, then the comma
        variants.push(Variant {
            ident,
            attrs,
            fields,
        });
    }
    Ok(variants)
}

// ------------------------------------------------------------- the renderer

/// `impl<..>` parameter list and `Name<..>` argument list. `bound` is added
/// to every type parameter; `de` prepends the `'de` lifetime.
fn impl_generics(item: &Item, bound: &str, de: bool) -> (String, String) {
    let mut decl: Vec<String> = Vec::new();
    let mut args: Vec<String> = Vec::new();
    if de {
        let outlives: Vec<&str> = item
            .params
            .iter()
            .filter_map(|p| match p {
                Param::Lifetime { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        if outlives.is_empty() {
            decl.push("'de".into());
        } else {
            decl.push(format!("'de: {}", outlives.join(" + ")));
        }
    }
    for param in &item.params {
        match param {
            Param::Lifetime { name, bounds } => {
                args.push(name.clone());
                decl.push(if bounds.is_empty() {
                    name.clone()
                } else {
                    format!("{name}: {bounds}")
                });
            }
            Param::Type { name, bounds } => {
                args.push(name.clone());
                decl.push(if bounds.is_empty() {
                    format!("{name}: {bound}")
                } else {
                    format!("{name}: {bounds} + {bound}")
                });
            }
            Param::Const { name, ty } => {
                args.push(name.clone());
                decl.push(format!("const {name}: {ty}"));
            }
        }
    }
    let wrap = |list: Vec<String>| {
        if list.is_empty() {
            String::new()
        } else {
            format!("<{}>", list.join(", "))
        }
    };
    (wrap(decl), wrap(args))
}

fn where_text(item: &Item) -> String {
    if item.where_clause.is_empty() {
        String::new()
    } else {
        format!("where {}", item.where_clause)
    }
}

const SER_SIG: &str = "fn serialize<__S: ::serde::Serializer>(&self, __serializer: __S) \
     -> ::core::result::Result<__S::Ok, __S::Error>";
const DE_SIG: &str = "fn deserialize<__D: ::serde::Deserializer<'de>>(__deserializer: __D) \
     -> ::core::result::Result<Self, __D::Error>";

fn render_serialize(item: &Item) -> String {
    let (decl, args) = impl_generics(item, "::serde::Serialize", false);
    let body = if let Some(into) = &item.attrs.into {
        format!(
            "let __wire: {into} = ::core::convert::Into::into(::core::clone::Clone::clone(self)); \
             ::serde::Serialize::serialize(&__wire, __serializer)"
        )
    } else {
        match &item.data {
            Data::Struct(fields) => ser_fields(fields, |f, i| match &f.ident {
                Some(ident) => format!("&self.{ident}"),
                None => format!("&self.{i}"),
            }),
            Data::Enum(variants) => {
                let mut arms = String::new();
                for variant in variants {
                    ser_variant(&item.ident, variant, &mut arms);
                }
                // `match *self {}` on an empty enum needs no arm.
                format!("match self {{ {arms} }}")
            }
        }
    };
    format!(
        "#[automatically_derived] impl{decl} ::serde::Serialize for {}{args} {} {{ {SER_SIG} {{ {body} }} }}",
        item.ident,
        where_text(item)
    )
}

/// Body that serializes `fields`, reading field `i` through `access(field, i)`.
fn ser_fields(fields: &Fields, access: impl Fn(&Field, usize) -> String) -> String {
    match fields {
        Fields::Unit => "::serde::Serializer::serialize_unit(__serializer)".into(),
        Fields::Tuple(fields) if fields.len() == 1 => {
            format!(
                "::serde::Serialize::serialize({}, __serializer)",
                access(&fields[0], 0)
            )
        }
        Fields::Tuple(fields) => {
            let mut out = String::from(
                "let mut __seq = ::serde::Serializer::serialize_seq(__serializer, ::core::option::Option::None)?;",
            );
            for (i, field) in fields.iter().enumerate().filter(|(_, f)| !f.attrs.skip) {
                write!(
                    out,
                    "::serde::ser::SerializeSeq::element(&mut __seq, {})?;",
                    access(field, i)
                )
                .unwrap();
            }
            out + "::serde::ser::SerializeSeq::end(__seq)"
        }
        Fields::Named(fields) => {
            let live = fields.iter().filter(|f| !f.attrs.skip).count();
            let mut out = format!(
                "let mut __map = ::serde::Serializer::serialize_map(__serializer, ::core::option::Option::Some({live}))?;"
            );
            for (i, field) in fields.iter().enumerate().filter(|(_, f)| !f.attrs.skip) {
                write!(
                    out,
                    "::serde::ser::SerializeMap::entry(&mut __map, {:?}, {})?;",
                    field.key(),
                    access(field, i)
                )
                .unwrap();
            }
            out + "::serde::ser::SerializeMap::end(__map)"
        }
    }
}

fn ser_variant(enum_ident: &str, variant: &Variant, arms: &mut String) {
    let (ident, key) = (&variant.ident, variant.key());
    match &variant.fields {
        Fields::Unit => write!(
            arms,
            "{enum_ident}::{ident} => ::serde::Serializer::serialize_unit_variant(__serializer, {key:?}),"
        ),
        Fields::Tuple(fields) => {
            let binds: Vec<String> = (0..fields.len()).map(|i| format!("__f{i}")).collect();
            let value = match binds.as_slice() {
                [one] => one.clone(),
                many => format!("&({},)", many.join(", ")),
            };
            write!(
                arms,
                "{enum_ident}::{ident}({}) => ::serde::Serializer::serialize_variant(__serializer, {key:?}, {value}),",
                binds.join(", ")
            )
        }
        Fields::Named(fields) => {
            // The variant's body is serialized through a local struct of
            // references, generic over the field types so they need no names.
            let live: Vec<&Field> = fields.iter().filter(|f| !f.attrs.skip).collect();
            let types: Vec<String> = (0..live.len()).map(|i| format!("__T{i}")).collect();
            let idents: Vec<&str> = live.iter().map(|f| f.ident.as_deref().unwrap()).collect();
            let decl: String = idents
                .iter()
                .zip(&types)
                .map(|(ident, ty)| format!("{ident}: &'__a {ty},"))
                .collect();
            let bounds: String = types
                .iter()
                .map(|ty| format!(", {ty}: ::serde::Serialize"))
                .collect();
            let args: String = types.iter().map(|ty| format!(", {ty}")).collect();
            let body = ser_fields(&variant.fields, |f, _| {
                format!("self.{}", f.ident.as_deref().unwrap())
            });
            write!(
                arms,
                "{enum_ident}::{ident} {{ {binds} .. }} => {{ \
                   struct __Body<'__a {args}> {{ {decl} }} \
                   impl<'__a {bounds}> ::serde::Serialize for __Body<'__a {args}> {{ {SER_SIG} {{ {body} }} }} \
                   ::serde::Serializer::serialize_variant(__serializer, {key:?}, &__Body {{ {binds} }}) \
                 }},",
                binds = idents.iter().map(|i| format!("{i},")).collect::<String>(),
            )
        }
    }
    .unwrap();
}

fn render_deserialize(item: &Item) -> String {
    let (decl, args) = impl_generics(item, "::serde::Deserialize<'de>", true);
    let name = &item.ident;
    let body = if let Some(from) = &item.attrs.from {
        format!(
            "::core::result::Result::map(<{from} as ::serde::Deserialize<'de>>::deserialize(__deserializer), ::core::convert::From::from)"
        )
    } else {
        match &item.data {
            Data::Struct(Fields::Unit) => format!(
                "::core::result::Result::map(<() as ::serde::Deserialize<'de>>::deserialize(__deserializer), |()| {name})"
            ),
            Data::Struct(Fields::Tuple(fields)) => de_tuple(name, fields, "__deserializer", "deserialize"),
            Data::Struct(Fields::Named(fields)) => {
                let (collect, build) = de_named(fields);
                format!(
                    "match ::serde::Deserializer::take(__deserializer)? {{ \
                       ::serde::de::Token::Map(mut __map) => {{ {collect} ::core::result::Result::Ok({name} {{ {build} }}) }} \
                       __other => ::core::result::Result::Err(::serde::__private::invalid_type({:?}, &__other)), \
                     }}",
                    format!("struct {name}")
                )
            }
            Data::Enum(variants) => de_enum(name, variants),
        }
    };
    format!(
        "#[automatically_derived] impl{decl} ::serde::Deserialize<'de> for {name}{args} {} {{ {DE_SIG} {{ {body} }} }}",
        where_text(item)
    )
}

/// A tuple struct or tuple variant built from `source` through `method`
/// (`Deserialize::deserialize(d)` or `MapAccess::next_value(&mut map)`).
fn de_tuple(path: &str, fields: &[Field], source: &str, method: &str) -> String {
    let call = match method {
        "deserialize" => format!("::serde::Deserialize::deserialize({source})?"),
        _ => format!("::serde::de::MapAccess::next_value(&mut {source})?"),
    };
    if fields.iter().any(|f| f.attrs.skip) {
        return "::core::compile_error!(\"serde(skip) on tuple fields is not supported by the offline stand-in\")".into();
    }
    match fields.len() {
        0 => format!("{{ let () = {call}; ::core::result::Result::Ok({path}()) }}"),
        1 => format!("::core::result::Result::Ok({path}({call}))"),
        n => {
            let binds: Vec<String> = (0..n).map(|i| format!("__f{i}")).collect();
            let binds = binds.join(", ");
            format!("{{ let ({binds},) = {call}; ::core::result::Result::Ok({path}({binds})) }}")
        }
    }
}

/// Statements that fill one `Option` per field from `__map`, and the struct
/// body that unwraps them (`__f0`.. are in scope for it).
fn de_named(fields: &[Field]) -> (String, String) {
    let mut collect = String::new();
    let mut arms = String::new();
    let mut build = String::new();
    for (i, field) in fields.iter().enumerate() {
        let ident = field.ident.as_deref().unwrap();
        if field.attrs.skip {
            write!(build, "{ident}: ::core::default::Default::default(),").unwrap();
            continue;
        }
        let key = field.key();
        write!(collect, "let mut __f{i} = ::core::option::Option::None;").unwrap();
        write!(
            arms,
            "{key:?} => {{ \
               if ::core::option::Option::is_some(&__f{i}) {{ \
                 return ::core::result::Result::Err(::serde::__private::duplicate_field({key:?})); \
               }} \
               __f{i} = ::core::option::Option::Some(::serde::de::MapAccess::next_value(&mut __map)?); \
             }}"
        )
        .unwrap();
        let absent = match &field.attrs.default {
            None => format!("::serde::__private::missing_field({key:?})?"),
            Some(None) => "::core::default::Default::default()".to_string(),
            Some(Some(path)) => format!("{path}()"),
        };
        write!(
            build,
            "{ident}: match __f{i} {{ \
               ::core::option::Option::Some(__v) => __v, \
               ::core::option::Option::None => {absent}, \
             }},"
        )
        .unwrap();
    }
    write!(
        collect,
        "while let ::core::option::Option::Some(__key) = \
           ::serde::de::MapAccess::next_key::<::std::borrow::Cow<'de, str>>(&mut __map)? {{ \
           match &*__key {{ {arms} _ => ::serde::de::MapAccess::skip_value(&mut __map)?, }} \
         }}"
    )
    .unwrap();
    (collect, build)
}

fn de_enum(name: &str, variants: &[Variant]) -> String {
    let mut unit_arms = String::new();
    let mut data_arms = String::new();
    for variant in variants {
        let (ident, key) = (&variant.ident, variant.key());
        let path = format!("{name}::{ident}");
        match &variant.fields {
            Fields::Unit => {
                write!(unit_arms, "{key:?} => ::core::result::Result::Ok({path}),").unwrap()
            }
            Fields::Tuple(fields) => write!(
                data_arms,
                "{key:?} => {},",
                de_tuple(&path, fields, "__map", "next_value")
            )
            .unwrap(),
            Fields::Named(fields) => {
                // The body is read through a local struct of options, generic
                // over the field types so they need no names; absent fields
                // are resolved here, where the real types are known again.
                let live: Vec<(usize, &Field)> = fields
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| !f.attrs.skip)
                    .collect();
                let types: Vec<String> = live.iter().map(|(i, _)| format!("__T{i}")).collect();
                let decl: String = live
                    .iter()
                    .map(|(i, _)| format!("__f{i}: ::core::option::Option<__T{i}>,"))
                    .collect();
                let bounds: String = types
                    .iter()
                    .map(|ty| format!(", {ty}: ::serde::Deserialize<'de>"))
                    .collect();
                let args = types.join(", ");
                let holes = vec!["_"; types.len()].join(", ");
                let (collect, build) = de_named(fields);
                let fill: String = live.iter().map(|(i, _)| format!("__f{i},")).collect();
                let unpack: String = live
                    .iter()
                    .map(|(i, _)| format!("let __f{i} = __body.__f{i};"))
                    .collect();
                write!(
                    data_arms,
                    "{key:?} => {{ \
                       struct __Body<{args}> {{ {decl} }} \
                       impl<'de {bounds}> ::serde::Deserialize<'de> for __Body<{args}> {{ {DE_SIG} {{ \
                         match ::serde::Deserializer::take(__deserializer)? {{ \
                           ::serde::de::Token::Map(mut __map) => {{ {collect} ::core::result::Result::Ok(__Body {{ {fill} }}) }} \
                           __other => ::core::result::Result::Err(::serde::__private::invalid_type({expect:?}, &__other)), \
                         }} \
                       }} }} \
                       let __body: __Body<{holes}> = ::serde::de::MapAccess::next_value(&mut __map)?; \
                       {unpack} \
                       ::core::result::Result::Ok({path} {{ {build} }}) \
                     }},",
                    expect = format!("struct variant {path}"),
                )
                .unwrap();
            }
        }
    }
    let expect = format!("enum {name}");
    format!(
        "match ::serde::Deserializer::take(__deserializer)? {{ \
           ::serde::de::Token::Str(__name) | ::serde::de::Token::Key(__name) => match &*__name {{ \
             {unit_arms} \
             __other => ::core::result::Result::Err(::serde::__private::unknown_variant({expect:?}, __other)), \
           }}, \
           ::serde::de::Token::Map(mut __map) => {{ \
             let __name = match ::serde::de::MapAccess::next_key::<::std::borrow::Cow<'de, str>>(&mut __map)? {{ \
               ::core::option::Option::Some(__name) => __name, \
               ::core::option::Option::None => return ::core::result::Result::Err(::serde::__private::invalid_length({expect:?}, 0)), \
             }}; \
             let __value: ::core::result::Result<Self, __D::Error> = match &*__name {{ \
               {data_arms} \
               __other => ::core::result::Result::Err(::serde::__private::unknown_variant({expect:?}, __other)), \
             }}; \
             let __value = __value?; \
             match ::serde::de::MapAccess::next_key::<::serde::de::IgnoredAny>(&mut __map)? {{ \
               ::core::option::Option::None => ::core::result::Result::Ok(__value), \
               ::core::option::Option::Some(_) => ::core::result::Result::Err(::serde::__private::invalid_length({expect:?}, 2)), \
             }} \
           }} \
           __other => ::core::result::Result::Err(::serde::__private::invalid_type({expect:?}, &__other)), \
         }}"
    )
}
