//! Recursive-descent parser.

use crate::ast::*;
use crate::error::ParseError;
use crate::lexer::Lexer;
use crate::token::{Keyword, SpannedToken, Token};
use crate::Result;

/// Parse a semicolon-separated script into statements.
pub fn parse_sql(src: &str) -> Result<Vec<Statement>> {
    let tokens = Lexer::new(src).tokenize()?;
    let mut parser = Parser::new(tokens);
    let mut out = Vec::new();
    loop {
        while parser.eat_token(&Token::Semicolon) {}
        if parser.at_eof() {
            return Ok(out);
        }
        out.push(parser.parse_statement()?);
        if !parser.at_eof() && !parser.check_token(&Token::Semicolon) {
            return Err(parser.unexpected("';' between statements"));
        }
    }
}

/// Parse exactly one statement (a trailing semicolon is allowed).
pub fn parse_statement(src: &str) -> Result<Statement> {
    let mut stmts = parse_sql(src)?;
    match stmts.len() {
        1 => Ok(stmts.pop().expect("len checked")),
        0 => Err(ParseError::new("empty statement", 1, 1)),
        n => Err(ParseError::new(format!("expected one statement, found {n}"), 1, 1)),
    }
}

/// The recursive-descent parser over a token stream.
pub struct Parser {
    tokens: Vec<SpannedToken>,
    pos: usize,
    /// Number of `?` parameters seen so far (assigns appearance-order
    /// indices).
    param_count: usize,
}

impl Parser {
    /// Create a parser from lexed tokens (must end with `Token::Eof`).
    pub fn new(tokens: Vec<SpannedToken>) -> Parser {
        Parser { tokens, pos: 0, param_count: 0 }
    }

    // ---------------------------------------------------------- utilities

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].token
    }

    fn peek_at(&self, offset: usize) -> &Token {
        &self.tokens[(self.pos + offset).min(self.tokens.len() - 1)].token
    }

    fn here(&self) -> (u32, u32) {
        let t = &self.tokens[self.pos.min(self.tokens.len() - 1)];
        (t.line, t.column)
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Token::Eof)
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].token.clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn check_token(&self, t: &Token) -> bool {
        self.peek() == t
    }

    fn check_kw(&self, kw: Keyword) -> bool {
        matches!(self.peek(), Token::Keyword(k) if *k == kw)
    }

    fn eat_token(&mut self, t: &Token) -> bool {
        if self.check_token(t) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: Keyword) -> bool {
        if self.check_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_token(&mut self, t: &Token) -> Result<()> {
        if self.eat_token(t) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("{t}")))
        }
    }

    fn expect_kw(&mut self, kw: Keyword) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("keyword {kw:?}")))
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.peek().clone() {
            Token::Ident(name) => {
                self.advance();
                Ok(name)
            }
            // Soft keywords: reserved only in structural positions that are
            // always introduced by another keyword, so they can double as
            // column names (`R.ordinality` after WITH ORDINALITY, etc.).
            Token::Keyword(
                kw @ (Keyword::Ordinality | Keyword::Key | Keyword::Index | Keyword::Graph),
            ) => {
                self.advance();
                Ok(format!("{kw:?}").to_ascii_lowercase())
            }
            _ => Err(self.unexpected("an identifier")),
        }
    }

    fn unexpected(&self, expected: &str) -> ParseError {
        let (line, column) = self.here();
        ParseError::new(format!("expected {expected}, found {}", self.peek()), line, column)
    }

    // --------------------------------------------------------- statements

    /// Parse one statement at the current position.
    pub fn parse_statement(&mut self) -> Result<Statement> {
        match self.peek().clone() {
            Token::Keyword(Keyword::Create) => self.parse_create(),
            Token::Keyword(Keyword::Drop) => self.parse_drop(),
            Token::Keyword(Keyword::Insert) => self.parse_insert(),
            Token::Keyword(Keyword::Delete) => self.parse_delete(),
            Token::Keyword(Keyword::Update) => self.parse_update(),
            Token::Keyword(Keyword::Explain) => {
                self.advance();
                // ANALYZE is contextual (not reserved): it only has meaning
                // directly after EXPLAIN, so `analyze` stays usable as an
                // ordinary identifier elsewhere.
                if matches!(self.peek(), Token::Ident(s) if s.eq_ignore_ascii_case("analyze")) {
                    self.advance();
                    Ok(Statement::ExplainAnalyze(self.parse_query()?))
                } else {
                    Ok(Statement::Explain(self.parse_query()?))
                }
            }
            Token::Keyword(Keyword::Describe) => {
                self.advance();
                Ok(Statement::Describe { name: self.expect_ident()? })
            }
            Token::Keyword(Keyword::Set) => self.parse_set(),
            // SHOW is contextual: a bare identifier can only start a
            // statement here, so this never shadows other uses of `show`.
            Token::Ident(s) if s.eq_ignore_ascii_case("show") => self.parse_show(),
            // CHECKPOINT is contextual for the same reason — `checkpoint`
            // stays usable as a column or table name.
            Token::Ident(s) if s.eq_ignore_ascii_case("checkpoint") => {
                self.advance();
                Ok(Statement::Checkpoint)
            }
            Token::Keyword(Keyword::Select)
            | Token::Keyword(Keyword::With)
            | Token::Keyword(Keyword::Values)
            | Token::LParen => Ok(Statement::Query(self.parse_query()?)),
            _ => Err(self.unexpected("a statement")),
        }
    }

    /// True when the current token is the identifier `word`
    /// (case-insensitive). Soft keywords like PATH, WEIGHT, USING and
    /// LANDMARKS stay ordinary identifiers everywhere else (`path` and
    /// `weight` are common column names in the paper's queries).
    fn check_soft_kw(&self, word: &str) -> bool {
        matches!(self.peek(), Token::Ident(s) if s.eq_ignore_ascii_case(word))
    }

    fn expect_soft_kw(&mut self, word: &str) -> Result<()> {
        if self.check_soft_kw(word) {
            self.advance();
            Ok(())
        } else {
            Err(self.unexpected(&format!("'{}'", word.to_ascii_uppercase())))
        }
    }

    fn parse_create(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Create)?;
        if self.eat_kw(Keyword::Graph) {
            // CREATE GRAPH INDEX name ON table EDGE (src, dst)
            self.expect_kw(Keyword::Index)?;
            let name = self.expect_ident()?;
            self.expect_kw(Keyword::On)?;
            let table = self.expect_ident()?;
            self.expect_kw(Keyword::Edge)?;
            self.expect_token(&Token::LParen)?;
            let src_col = self.expect_ident()?;
            self.expect_token(&Token::Comma)?;
            let dst_col = self.expect_ident()?;
            self.expect_token(&Token::RParen)?;
            return Ok(Statement::CreateGraphIndex { name, table, src_col, dst_col });
        }
        // PATH is contextual: only `CREATE PATH INDEX` treats it specially,
        // so `path` keeps working as a table/column name.
        if self.check_soft_kw("path") && matches!(self.peek_at(1), Token::Keyword(Keyword::Index)) {
            return self.parse_create_path_index();
        }
        self.expect_kw(Keyword::Table)?;
        let name = self.expect_ident()?;
        self.expect_token(&Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.expect_ident()?;
            let ty = self.parse_type_name()?;
            let mut not_null = false;
            let mut primary_key = false;
            loop {
                if self.check_kw(Keyword::Not) {
                    self.advance();
                    self.expect_kw(Keyword::Null)?;
                    not_null = true;
                } else if self.check_kw(Keyword::Primary) {
                    self.advance();
                    self.expect_kw(Keyword::Key)?;
                    primary_key = true;
                    not_null = true;
                } else {
                    break;
                }
            }
            columns.push(ColumnDefAst { name: col_name, ty, not_null, primary_key });
            if !self.eat_token(&Token::Comma) {
                break;
            }
        }
        self.expect_token(&Token::RParen)?;
        Ok(Statement::CreateTable { name, columns })
    }

    /// The tail of `CREATE PATH INDEX [IF NOT EXISTS] name ON table EDGE
    /// (src, dst) [WEIGHT col] USING {LANDMARKS(k) | CONTRACTION}` (PATH
    /// already peeked).
    fn parse_create_path_index(&mut self) -> Result<Statement> {
        self.advance(); // PATH
        self.expect_kw(Keyword::Index)?;
        // IF is contextual: `IF NOT` cannot start anything else here, so an
        // index actually named `if` keeps parsing (it is followed by ON).
        let if_not_exists = if self.check_soft_kw("if")
            && matches!(self.peek_at(1), Token::Keyword(Keyword::Not))
        {
            self.advance(); // IF
            self.expect_kw(Keyword::Not)?;
            self.expect_kw(Keyword::Exists)?;
            true
        } else {
            false
        };
        let name = self.expect_ident()?;
        self.expect_kw(Keyword::On)?;
        let table = self.expect_ident()?;
        self.expect_kw(Keyword::Edge)?;
        self.expect_token(&Token::LParen)?;
        let src_col = self.expect_ident()?;
        self.expect_token(&Token::Comma)?;
        let dst_col = self.expect_ident()?;
        self.expect_token(&Token::RParen)?;
        let weight_col = if self.check_soft_kw("weight") {
            self.advance(); // WEIGHT
            Some(self.expect_ident()?)
        } else {
            None
        };
        self.expect_soft_kw("using")?;
        let method = if self.check_soft_kw("landmarks") {
            self.advance(); // LANDMARKS
            self.expect_token(&Token::LParen)?;
            let landmarks = match self.peek().clone() {
                Token::Int(v) if v > 0 && v <= u32::MAX as i64 => {
                    self.advance();
                    v as u32
                }
                _ => return Err(self.unexpected("a positive landmark count")),
            };
            self.expect_token(&Token::RParen)?;
            PathIndexMethod::Landmarks(landmarks)
        } else if self.check_soft_kw("contraction") {
            self.advance(); // CONTRACTION
            PathIndexMethod::Contraction
        } else {
            return Err(self.unexpected("'LANDMARKS(k)' or 'CONTRACTION'"));
        };
        Ok(Statement::CreatePathIndex {
            name,
            table,
            src_col,
            dst_col,
            weight_col,
            method,
            if_not_exists,
        })
    }

    fn parse_drop(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Drop)?;
        if self.eat_kw(Keyword::Graph) {
            self.expect_kw(Keyword::Index)?;
            return Ok(Statement::DropGraphIndex { name: self.expect_ident()? });
        }
        if self.check_soft_kw("path") && matches!(self.peek_at(1), Token::Keyword(Keyword::Index)) {
            self.advance(); // PATH
            self.advance(); // INDEX
            let if_exists = if self.check_soft_kw("if")
                && matches!(self.peek_at(1), Token::Keyword(Keyword::Exists))
            {
                self.advance(); // IF
                self.advance(); // EXISTS
                true
            } else {
                false
            };
            return Ok(Statement::DropPathIndex { name: self.expect_ident()?, if_exists });
        }
        self.expect_kw(Keyword::Table)?;
        Ok(Statement::DropTable { name: self.expect_ident()? })
    }

    fn parse_insert(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Insert)?;
        self.expect_kw(Keyword::Into)?;
        let table = self.expect_ident()?;
        let mut columns = None;
        if self.check_token(&Token::LParen) {
            // Could be a column list or a parenthesized query; a column list
            // is `(ident, …)` followed by VALUES/SELECT.
            if matches!(self.peek_at(1), Token::Ident(_))
                && matches!(self.peek_at(2), Token::Comma | Token::RParen)
            {
                self.advance(); // (
                let mut cols = Vec::new();
                loop {
                    cols.push(self.expect_ident()?);
                    if !self.eat_token(&Token::Comma) {
                        break;
                    }
                }
                self.expect_token(&Token::RParen)?;
                columns = Some(cols);
            }
        }
        let source = self.parse_query()?;
        Ok(Statement::Insert { table, columns, source })
    }

    fn parse_delete(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Delete)?;
        self.expect_kw(Keyword::From)?;
        let table = self.expect_ident()?;
        let filter = if self.eat_kw(Keyword::Where) { Some(self.parse_expr()?) } else { None };
        Ok(Statement::Delete { table, filter })
    }

    fn parse_update(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Update)?;
        let table = self.expect_ident()?;
        self.expect_kw(Keyword::Set)?;
        let mut assignments = Vec::new();
        loop {
            let col = self.expect_ident()?;
            self.expect_token(&Token::Eq)?;
            let value = self.parse_expr()?;
            assignments.push((col, value));
            if !self.eat_token(&Token::Comma) {
                break;
            }
        }
        let filter = if self.eat_kw(Keyword::Where) { Some(self.parse_expr()?) } else { None };
        Ok(Statement::Update { table, assignments, filter })
    }

    /// `SET <option> = <value>` where the value is a literal or a bare word
    /// (`on` / `off`).
    fn parse_set(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Set)?;
        let name = self.expect_ident()?;
        self.expect_token(&Token::Eq)?;
        let value = match self.peek().clone() {
            Token::Int(v) => {
                self.advance();
                SetValue::Literal(Literal::Int(v))
            }
            Token::Float(v) => {
                self.advance();
                SetValue::Literal(Literal::Float(v))
            }
            Token::String(s) => {
                self.advance();
                SetValue::Literal(Literal::String(s))
            }
            Token::Keyword(Keyword::True) => {
                self.advance();
                SetValue::Literal(Literal::Bool(true))
            }
            Token::Keyword(Keyword::False) => {
                self.advance();
                SetValue::Literal(Literal::Bool(false))
            }
            Token::Keyword(Keyword::On) => {
                // ON is reserved (joins), but natural as a setting value.
                self.advance();
                SetValue::Ident("on".to_string())
            }
            Token::Ident(_) => SetValue::Ident(self.expect_ident()?),
            _ => return Err(self.unexpected("a literal or identifier after '='")),
        };
        Ok(Statement::Set { name, value })
    }

    /// `SHOW <option>` or `SHOW ALL` (the SHOW word is already peeked).
    fn parse_show(&mut self) -> Result<Statement> {
        self.advance(); // the SHOW identifier
        if self.eat_kw(Keyword::All) {
            return Ok(Statement::Show { name: None });
        }
        // SHOW PATH INDEXES lists the path-index registry; a plain
        // `SHOW path` (no such setting exists) still parses as Show.
        if self.check_soft_kw("path")
            && matches!(self.peek_at(1), Token::Ident(s) if s.eq_ignore_ascii_case("indexes"))
        {
            self.advance(); // PATH
            self.advance(); // INDEXES
            return Ok(Statement::ShowPathIndexes);
        }
        Ok(Statement::Show { name: Some(self.expect_ident()?) })
    }

    // ------------------------------------------------------------ queries

    /// Parse a full query: `[WITH …] body [ORDER BY …] [LIMIT …] [OFFSET …]`.
    pub fn parse_query(&mut self) -> Result<Query> {
        let mut ctes = Vec::new();
        if self.eat_kw(Keyword::With) {
            loop {
                let name = self.expect_ident()?;
                let columns = if self.check_token(&Token::LParen) {
                    self.advance();
                    let mut cols = Vec::new();
                    loop {
                        cols.push(self.expect_ident()?);
                        if !self.eat_token(&Token::Comma) {
                            break;
                        }
                    }
                    self.expect_token(&Token::RParen)?;
                    Some(cols)
                } else {
                    None
                };
                self.expect_kw(Keyword::As)?;
                self.expect_token(&Token::LParen)?;
                let query = self.parse_query()?;
                self.expect_token(&Token::RParen)?;
                ctes.push(Cte { name, columns, query });
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
        }
        let body = self.parse_set_expr()?;
        let mut order_by = Vec::new();
        if self.eat_kw(Keyword::Order) {
            self.expect_kw(Keyword::By)?;
            loop {
                let expr = self.parse_expr()?;
                let asc = if self.eat_kw(Keyword::Desc) {
                    false
                } else {
                    self.eat_kw(Keyword::Asc);
                    true
                };
                order_by.push(OrderItem { expr, asc });
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw(Keyword::Limit) { Some(self.parse_expr()?) } else { None };
        let offset = if self.eat_kw(Keyword::Offset) { Some(self.parse_expr()?) } else { None };
        Ok(Query { ctes, body, order_by, limit, offset })
    }

    fn parse_set_expr(&mut self) -> Result<SetExpr> {
        let mut left = self.parse_set_primary()?;
        while self.check_kw(Keyword::Union) {
            self.advance();
            let all = self.eat_kw(Keyword::All);
            let right = self.parse_set_primary()?;
            left = SetExpr::Union { left: Box::new(left), right: Box::new(right), all };
        }
        Ok(left)
    }

    fn parse_set_primary(&mut self) -> Result<SetExpr> {
        if self.check_token(&Token::LParen) {
            self.advance();
            let inner = self.parse_set_expr()?;
            self.expect_token(&Token::RParen)?;
            return Ok(inner);
        }
        if self.eat_kw(Keyword::Values) {
            let mut rows = Vec::new();
            loop {
                self.expect_token(&Token::LParen)?;
                let mut row = Vec::new();
                loop {
                    row.push(self.parse_expr()?);
                    if !self.eat_token(&Token::Comma) {
                        break;
                    }
                }
                self.expect_token(&Token::RParen)?;
                rows.push(row);
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
            return Ok(SetExpr::Values(rows));
        }
        Ok(SetExpr::Select(Box::new(self.parse_select()?)))
    }

    fn parse_select(&mut self) -> Result<Select> {
        self.expect_kw(Keyword::Select)?;
        let distinct = if self.eat_kw(Keyword::Distinct) {
            true
        } else {
            self.eat_kw(Keyword::All);
            false
        };
        let mut items = Vec::new();
        loop {
            items.push(self.parse_select_item()?);
            if !self.eat_token(&Token::Comma) {
                break;
            }
        }
        // FROM is optional: appendix A.1 queries have only SELECT + WHERE.
        let mut from = Vec::new();
        if self.eat_kw(Keyword::From) {
            loop {
                from.push(self.parse_table_ref()?);
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
        }
        let where_clause =
            if self.eat_kw(Keyword::Where) { Some(self.parse_expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_kw(Keyword::Group) {
            self.expect_kw(Keyword::By)?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw(Keyword::Having) { Some(self.parse_expr()?) } else { None };
        Ok(Select { distinct, items, from, where_clause, group_by, having })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        if self.eat_token(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // t.*
        if matches!(self.peek(), Token::Ident(_))
            && *self.peek_at(1) == Token::Dot
            && *self.peek_at(2) == Token::Star
        {
            let table = self.expect_ident()?;
            self.advance(); // .
            self.advance(); // *
            return Ok(SelectItem::QualifiedWildcard(table));
        }
        if self.check_kw(Keyword::Cheapest) {
            return self.parse_cheapest_sum();
        }
        let expr = self.parse_expr()?;
        let alias = self.parse_optional_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    /// `CHEAPEST SUM([e:] weight) [AS cost | AS (cost, path)]`
    fn parse_cheapest_sum(&mut self) -> Result<SelectItem> {
        self.expect_kw(Keyword::Cheapest)?;
        match self.peek().clone() {
            Token::Ident(s) if s.eq_ignore_ascii_case("sum") => {
                self.advance();
            }
            _ => return Err(self.unexpected("SUM after CHEAPEST")),
        }
        self.expect_token(&Token::LParen)?;
        // Optional `binding :` prefix — only when an identifier is directly
        // followed by a colon.
        let binding = if matches!(self.peek(), Token::Ident(_)) && *self.peek_at(1) == Token::Colon
        {
            let b = self.expect_ident()?;
            self.advance(); // :
            Some(b)
        } else {
            None
        };
        let weight = self.parse_expr()?;
        self.expect_token(&Token::RParen)?;
        let aliases = if self.eat_kw(Keyword::As) {
            if self.eat_token(&Token::LParen) {
                let cost = self.expect_ident()?;
                self.expect_token(&Token::Comma)?;
                let path = self.expect_ident()?;
                self.expect_token(&Token::RParen)?;
                CheapestAlias::CostAndPath(cost, path)
            } else {
                CheapestAlias::Cost(self.expect_ident()?)
            }
        } else {
            CheapestAlias::None
        };
        Ok(SelectItem::CheapestSum { binding, weight, aliases })
    }

    fn parse_optional_alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw(Keyword::As) {
            return Ok(Some(self.expect_ident()?));
        }
        if matches!(self.peek(), Token::Ident(_)) {
            return Ok(Some(self.expect_ident()?));
        }
        Ok(None)
    }

    // -------------------------------------------------------- table refs

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        let mut left = self.parse_table_primary()?;
        loop {
            let kind = if self.check_kw(Keyword::Join) || self.check_kw(Keyword::Inner) {
                self.eat_kw(Keyword::Inner);
                self.expect_kw(Keyword::Join)?;
                JoinKind::Inner
            } else if self.check_kw(Keyword::Left) {
                self.advance();
                self.eat_kw(Keyword::Outer);
                self.expect_kw(Keyword::Join)?;
                JoinKind::LeftOuter
            } else if self.check_kw(Keyword::Cross) {
                self.advance();
                self.expect_kw(Keyword::Join)?;
                JoinKind::Cross
            } else {
                return Ok(left);
            };
            let right = self.parse_table_primary()?;
            let on = if kind == JoinKind::Cross {
                None
            } else if self.eat_kw(Keyword::On) {
                Some(self.parse_expr()?)
            } else if matches!(right, TableRef::Unnest { .. }) {
                // Lateral unnest joins may omit ON (implicitly ON TRUE).
                None
            } else {
                return Err(self.unexpected("ON after JOIN"));
            };
            left = TableRef::Join { left: Box::new(left), right: Box::new(right), kind, on };
        }
    }

    fn parse_table_primary(&mut self) -> Result<TableRef> {
        if self.check_kw(Keyword::Unnest) {
            return self.parse_unnest();
        }
        if self.check_token(&Token::LParen) {
            self.advance();
            let query = self.parse_query()?;
            self.expect_token(&Token::RParen)?;
            let alias = self
                .parse_optional_alias()?
                .ok_or_else(|| self.unexpected("an alias for the derived table"))?;
            return Ok(TableRef::Derived { query: Box::new(query), alias });
        }
        let name = self.expect_ident()?;
        let alias = self.parse_optional_alias()?;
        Ok(TableRef::Base { name, alias })
    }

    fn parse_unnest(&mut self) -> Result<TableRef> {
        self.expect_kw(Keyword::Unnest)?;
        self.expect_token(&Token::LParen)?;
        let expr = self.parse_expr()?;
        self.expect_token(&Token::RParen)?;
        let with_ordinality = if self.check_kw(Keyword::With) {
            self.advance();
            self.expect_kw(Keyword::Ordinality)?;
            true
        } else {
            false
        };
        let alias = self.parse_optional_alias()?;
        let column_aliases = if alias.is_some() && self.check_token(&Token::LParen) {
            self.advance();
            let mut cols = Vec::new();
            loop {
                cols.push(self.expect_ident()?);
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(&Token::RParen)?;
            Some(cols)
        } else {
            None
        };
        Ok(TableRef::Unnest { expr, with_ordinality, alias, column_aliases })
    }

    // -------------------------------------------------------- expressions

    /// Parse an expression (entry point: lowest precedence).
    pub fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        while self.eat_kw(Keyword::Or) {
            let right = self.parse_and()?;
            left = Expr::Binary { left: Box::new(left), op: BinaryOp::Or, right: Box::new(right) };
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_not()?;
        while self.eat_kw(Keyword::And) {
            let right = self.parse_not()?;
            left = Expr::Binary { left: Box::new(left), op: BinaryOp::And, right: Box::new(right) };
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.eat_kw(Keyword::Not) {
            let inner = self.parse_not()?;
            return Ok(Expr::Unary { op: UnaryOp::Not, expr: Box::new(inner) });
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr> {
        let left = self.parse_additive()?;
        // Simple binary comparisons.
        let op = match self.peek() {
            Token::Eq => Some(BinaryOp::Eq),
            Token::NotEq => Some(BinaryOp::NotEq),
            Token::Lt => Some(BinaryOp::Lt),
            Token::LtEq => Some(BinaryOp::LtEq),
            Token::Gt => Some(BinaryOp::Gt),
            Token::GtEq => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let right = self.parse_additive()?;
            return Ok(Expr::Binary { left: Box::new(left), op, right: Box::new(right) });
        }
        // IS [NOT] NULL
        if self.check_kw(Keyword::Is) {
            self.advance();
            let negated = self.eat_kw(Keyword::Not);
            self.expect_kw(Keyword::Null)?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated });
        }
        // [NOT] IN / BETWEEN / LIKE, and REACHES
        let negated = self.eat_kw(Keyword::Not);
        if self.eat_kw(Keyword::In) {
            self.expect_token(&Token::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.parse_expr()?);
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(&Token::RParen)?;
            return Ok(Expr::InList { expr: Box::new(left), list, negated });
        }
        if self.eat_kw(Keyword::Between) {
            let low = self.parse_additive()?;
            self.expect_kw(Keyword::And)?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw(Keyword::Like) {
            let pattern = self.parse_additive()?;
            return Ok(Expr::Like { expr: Box::new(left), pattern: Box::new(pattern), negated });
        }
        if self.check_kw(Keyword::Reaches) {
            if negated {
                return Err(self.unexpected(
                    "REACHES cannot be negated with NOT directly; \
                                            wrap it: NOT (x REACHES y OVER …)",
                ));
            }
            self.advance();
            return self.parse_reaches_tail(left);
        }
        if negated {
            return Err(self.unexpected("IN, BETWEEN or LIKE after NOT"));
        }
        Ok(left)
    }

    /// Parse the remainder of `left REACHES dest OVER edge [alias] EDGE (s, d)`.
    fn parse_reaches_tail(&mut self, source: Expr) -> Result<Expr> {
        let dest = self.parse_additive()?;
        self.expect_kw(Keyword::Over)?;
        // The edge table: a base name (table or CTE) or a derived table.
        let edge_table = if self.check_token(&Token::LParen) {
            self.advance();
            let query = self.parse_query()?;
            self.expect_token(&Token::RParen)?;
            // The tuple-variable alias (if any) is parsed below and doubles
            // as the derived table's name.
            TableRef::Derived { query: Box::new(query), alias: String::new() }
        } else {
            TableRef::Base { name: self.expect_ident()?, alias: None }
        };
        // Optional tuple variable, e.g. `OVER friends1 f EDGE (…)`. EDGE is
        // a keyword, so an identifier here is unambiguous.
        let alias =
            if matches!(self.peek(), Token::Ident(_)) { Some(self.expect_ident()?) } else { None };
        let edge_table = match edge_table {
            TableRef::Derived { query, .. } => {
                let name = alias
                    .clone()
                    .ok_or_else(|| self.unexpected("an alias for the derived edge table"))?;
                TableRef::Derived { query, alias: name }
            }
            other => other,
        };
        self.expect_kw(Keyword::Edge)?;
        self.expect_token(&Token::LParen)?;
        let src_col = self.expect_ident()?;
        self.expect_token(&Token::Comma)?;
        let dst_col = self.expect_ident()?;
        self.expect_token(&Token::RParen)?;
        Ok(Expr::Reaches(Box::new(ReachesPredicate {
            source,
            dest,
            edge_table,
            alias,
            src_col,
            dst_col,
        })))
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Token::Plus => BinaryOp::Add,
                Token::Minus => BinaryOp::Sub,
                Token::Concat => BinaryOp::Concat,
                _ => return Ok(left),
            };
            self.advance();
            let right = self.parse_multiplicative()?;
            left = Expr::Binary { left: Box::new(left), op, right: Box::new(right) };
        }
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Token::Star => BinaryOp::Mul,
                Token::Slash => BinaryOp::Div,
                Token::Percent => BinaryOp::Mod,
                _ => return Ok(left),
            };
            self.advance();
            let right = self.parse_unary()?;
            left = Expr::Binary { left: Box::new(left), op, right: Box::new(right) };
        }
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat_token(&Token::Minus) {
            let inner = self.parse_unary()?;
            // Fold negation into numeric literals so `-5` is a literal (and
            // `i64::MIN` is representable), not a unary expression.
            return Ok(match inner {
                Expr::Literal(Literal::Int(v)) => Expr::Literal(Literal::Int(-v)),
                Expr::Literal(Literal::Float(v)) => Expr::Literal(Literal::Float(-v)),
                other => Expr::Unary { op: UnaryOp::Neg, expr: Box::new(other) },
            });
        }
        if self.eat_token(&Token::Plus) {
            return self.parse_unary();
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            Token::Int(v) => {
                self.advance();
                Ok(Expr::Literal(Literal::Int(v)))
            }
            Token::Float(v) => {
                self.advance();
                Ok(Expr::Literal(Literal::Float(v)))
            }
            Token::String(s) => {
                self.advance();
                Ok(Expr::Literal(Literal::String(s)))
            }
            Token::Question => {
                self.advance();
                let idx = self.param_count;
                self.param_count += 1;
                Ok(Expr::Param(idx))
            }
            Token::Keyword(Keyword::Null) => {
                self.advance();
                Ok(Expr::Literal(Literal::Null))
            }
            Token::Keyword(Keyword::True) => {
                self.advance();
                Ok(Expr::Literal(Literal::Bool(true)))
            }
            Token::Keyword(Keyword::False) => {
                self.advance();
                Ok(Expr::Literal(Literal::Bool(false)))
            }
            Token::Keyword(Keyword::Date) => {
                // DATE 'YYYY-MM-DD' literal.
                self.advance();
                match self.peek().clone() {
                    Token::String(s) => {
                        self.advance();
                        Ok(Expr::Literal(Literal::Date(s)))
                    }
                    _ => Err(self.unexpected("a string literal after DATE")),
                }
            }
            Token::Keyword(Keyword::Cast) => {
                self.advance();
                self.expect_token(&Token::LParen)?;
                let expr = self.parse_expr()?;
                self.expect_kw(Keyword::As)?;
                let ty = self.parse_type_name()?;
                self.expect_token(&Token::RParen)?;
                Ok(Expr::Cast { expr: Box::new(expr), ty })
            }
            Token::Keyword(Keyword::Case) => self.parse_case(),
            Token::LParen => {
                self.advance();
                let inner = self.parse_expr()?;
                self.expect_token(&Token::RParen)?;
                Ok(inner)
            }
            Token::Ident(name) => {
                self.advance();
                // Function call?
                if self.check_token(&Token::LParen) {
                    self.advance();
                    let mut distinct = false;
                    let mut args = Vec::new();
                    if self.eat_token(&Token::Star) {
                        // COUNT(*) — zero-argument encoding.
                        self.expect_token(&Token::RParen)?;
                        return Ok(Expr::Function { name, args, distinct });
                    }
                    if !self.check_token(&Token::RParen) {
                        distinct = self.eat_kw(Keyword::Distinct);
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat_token(&Token::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect_token(&Token::RParen)?;
                    return Ok(Expr::Function { name, args, distinct });
                }
                // Qualified column?
                if self.check_token(&Token::Dot) {
                    self.advance();
                    let col = self.expect_ident()?;
                    return Ok(Expr::Column { table: Some(name), name: col });
                }
                Ok(Expr::Column { table: None, name })
            }
            _ => Err(self.unexpected("an expression")),
        }
    }

    fn parse_case(&mut self) -> Result<Expr> {
        self.expect_kw(Keyword::Case)?;
        let operand =
            if self.check_kw(Keyword::When) { None } else { Some(Box::new(self.parse_expr()?)) };
        let mut branches = Vec::new();
        while self.eat_kw(Keyword::When) {
            let when = self.parse_expr()?;
            self.expect_kw(Keyword::Then)?;
            let then = self.parse_expr()?;
            branches.push((when, then));
        }
        if branches.is_empty() {
            return Err(self.unexpected("WHEN in CASE expression"));
        }
        let else_expr =
            if self.eat_kw(Keyword::Else) { Some(Box::new(self.parse_expr()?)) } else { None };
        self.expect_kw(Keyword::End)?;
        Ok(Expr::Case { operand, branches, else_expr })
    }

    fn parse_type_name(&mut self) -> Result<TypeName> {
        let ty = match self.peek() {
            Token::Keyword(Keyword::Integer)
            | Token::Keyword(Keyword::Int)
            | Token::Keyword(Keyword::Bigint) => TypeName::Integer,
            Token::Keyword(Keyword::Double) | Token::Keyword(Keyword::Float) => TypeName::Double,
            Token::Keyword(Keyword::Varchar) | Token::Keyword(Keyword::Text) => TypeName::Varchar,
            Token::Keyword(Keyword::Boolean) => TypeName::Boolean,
            Token::Keyword(Keyword::Date) => TypeName::Date,
            _ => return Err(self.unexpected("a type name")),
        };
        self.advance();
        // Optional and ignored length, e.g. VARCHAR(40).
        if ty == TypeName::Varchar && self.eat_token(&Token::LParen) {
            match self.advance() {
                Token::Int(_) => {}
                _ => return Err(self.unexpected("a length")),
            }
            self.expect_token(&Token::RParen)?;
        }
        // DOUBLE PRECISION
        if ty == TypeName::Double {
            if let Token::Ident(s) = self.peek() {
                if s.eq_ignore_ascii_case("precision") {
                    self.advance();
                }
            }
        }
        Ok(ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(src: &str) -> Query {
        match parse_statement(src).unwrap() {
            Statement::Query(q) => q,
            other => panic!("expected query, got {other:?}"),
        }
    }

    fn select(src: &str) -> Select {
        match q(src).body {
            SetExpr::Select(s) => *s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn parses_simple_select() {
        let s = select("SELECT a, b AS bee FROM t WHERE a > 1");
        assert_eq!(s.items.len(), 2);
        assert!(matches!(&s.items[1], SelectItem::Expr { alias: Some(a), .. } if a == "bee"));
        assert_eq!(s.from.len(), 1);
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn parses_paper_query_a1() {
        // Appendix A.1: no FROM clause, two parameters.
        let s = select("SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (src, dst)");
        assert!(s.from.is_empty());
        assert!(matches!(
            &s.items[0],
            SelectItem::CheapestSum { binding: None, aliases: CheapestAlias::None, .. }
        ));
        match s.where_clause.unwrap() {
            Expr::Reaches(r) => {
                assert_eq!(r.source, Expr::Param(0));
                assert_eq!(r.dest, Expr::Param(1));
                assert_eq!(r.src_col, "src");
                assert_eq!(r.dst_col, "dst");
                assert!(matches!(&r.edge_table, TableRef::Base { name, .. } if name == "friends"));
            }
            other => panic!("expected REACHES, got {other:?}"),
        }
    }

    #[test]
    fn parses_paper_query_a2() {
        let s = select(
            "SELECT p1.firstName || ' ' || p1.lastName AS person1, \
                    p2.firstName || ' ' || p2.lastName AS person2, \
                    CHEAPEST SUM(1) AS distance \
             FROM persons p1, persons p2 \
             WHERE p1.id = ? AND p2.id = ? \
               AND p1.id REACHES p2.id OVER friends EDGE (src, dst)",
        );
        assert_eq!(s.items.len(), 3);
        assert_eq!(s.from.len(), 2);
        assert!(matches!(
            &s.items[2],
            SelectItem::CheapestSum { aliases: CheapestAlias::Cost(c), .. } if c == "distance"
        ));
    }

    #[test]
    fn parses_paper_query_a4_with_cte_binding_and_two_aliases() {
        let query =
            q("WITH friends1 AS (SELECT * FROM friends WHERE creationDate < '2011-01-01') \
             SELECT firstName || ' ' || lastName AS person, \
                    CHEAPEST SUM(f: CAST(weight * 2 AS int)) AS (cost, path) \
             FROM persons \
             WHERE ? REACHES id OVER friends1 f EDGE (person1, person2)");
        assert_eq!(query.ctes.len(), 1);
        assert_eq!(query.ctes[0].name, "friends1");
        let s = match query.body {
            SetExpr::Select(s) => *s,
            other => panic!("{other:?}"),
        };
        match &s.items[1] {
            SelectItem::CheapestSum { binding, weight, aliases } => {
                assert_eq!(binding.as_deref(), Some("f"));
                assert!(matches!(weight, Expr::Cast { .. }));
                assert!(matches!(aliases,
                    CheapestAlias::CostAndPath(c, p) if c == "cost" && p == "path"));
            }
            other => panic!("expected CHEAPEST SUM, got {other:?}"),
        }
        match s.where_clause.unwrap() {
            Expr::Reaches(r) => {
                assert_eq!(r.alias.as_deref(), Some("f"));
                assert!(matches!(&r.edge_table, TableRef::Base { name, .. } if name == "friends1"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_unnest_lateral() {
        let s = select(
            "SELECT T.X, T.cost, R.S, R.D \
             FROM (SELECT 1 AS X) T, UNNEST(T.path) AS R",
        );
        assert_eq!(s.from.len(), 2);
        assert!(matches!(&s.from[0], TableRef::Derived { alias, .. } if alias == "T"));
        match &s.from[1] {
            TableRef::Unnest { with_ordinality, alias, .. } => {
                assert!(!with_ordinality);
                assert_eq!(alias.as_deref(), Some("R"));
            }
            other => panic!("expected UNNEST, got {other:?}"),
        }
    }

    #[test]
    fn parses_unnest_with_ordinality_and_left_join() {
        let s = select("SELECT * FROM t LEFT JOIN UNNEST(t.path) WITH ORDINALITY AS r (s, d, pos)");
        match &s.from[0] {
            TableRef::Join { kind: JoinKind::LeftOuter, right, on: None, .. } => {
                match right.as_ref() {
                    TableRef::Unnest { with_ordinality, column_aliases, .. } => {
                        assert!(*with_ordinality);
                        assert_eq!(
                            column_aliases.as_ref().unwrap(),
                            &vec!["s".to_string(), "d".to_string(), "pos".to_string()]
                        );
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_ddl() {
        let stmt = parse_statement(
            "CREATE TABLE persons (id INTEGER PRIMARY KEY, name VARCHAR(40) NOT NULL, \
             weight DOUBLE, created DATE, ok BOOLEAN)",
        )
        .unwrap();
        match stmt {
            Statement::CreateTable { name, columns } => {
                assert_eq!(name, "persons");
                assert_eq!(columns.len(), 5);
                assert!(columns[0].primary_key && columns[0].not_null);
                assert!(columns[1].not_null && !columns[1].primary_key);
                assert_eq!(columns[2].ty, TypeName::Double);
                assert_eq!(columns[3].ty, TypeName::Date);
                assert_eq!(columns[4].ty, TypeName::Boolean);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_insert_values_and_select() {
        let stmt = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        match stmt {
            Statement::Insert { table, columns, source } => {
                assert_eq!(table, "t");
                assert_eq!(columns.unwrap(), vec!["a".to_string(), "b".to_string()]);
                assert!(matches!(source.body, SetExpr::Values(rows) if rows.len() == 2));
            }
            other => panic!("{other:?}"),
        }
        let stmt = parse_statement("INSERT INTO t SELECT * FROM s").unwrap();
        assert!(matches!(stmt, Statement::Insert { columns: None, .. }));
    }

    #[test]
    fn parses_delete_update() {
        assert!(matches!(
            parse_statement("DELETE FROM t WHERE a = 1").unwrap(),
            Statement::Delete { filter: Some(_), .. }
        ));
        match parse_statement("UPDATE t SET a = a + 1, b = 'x' WHERE c").unwrap() {
            Statement::Update { assignments, filter, .. } => {
                assert_eq!(assignments.len(), 2);
                assert!(filter.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_graph_index_ddl() {
        match parse_statement("CREATE GRAPH INDEX gi ON friends EDGE (src, dst)").unwrap() {
            Statement::CreateGraphIndex { name, table, src_col, dst_col } => {
                assert_eq!((name.as_str(), table.as_str()), ("gi", "friends"));
                assert_eq!((src_col.as_str(), dst_col.as_str()), ("src", "dst"));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_statement("DROP GRAPH INDEX gi").unwrap(),
            Statement::DropGraphIndex { .. }
        ));
    }

    #[test]
    fn parses_path_index_ddl() {
        match parse_statement(
            "CREATE PATH INDEX pi ON roads EDGE (a, b) WEIGHT len USING LANDMARKS(16)",
        )
        .unwrap()
        {
            Statement::CreatePathIndex {
                name,
                table,
                src_col,
                dst_col,
                weight_col,
                method,
                if_not_exists,
            } => {
                assert_eq!((name.as_str(), table.as_str()), ("pi", "roads"));
                assert_eq!((src_col.as_str(), dst_col.as_str()), ("a", "b"));
                assert_eq!(weight_col.as_deref(), Some("len"));
                assert_eq!(method, PathIndexMethod::Landmarks(16));
                assert!(!if_not_exists);
            }
            other => panic!("{other:?}"),
        }
        // Unweighted (hop-distance) form.
        match parse_statement("CREATE PATH INDEX pi ON e EDGE (s, d) USING LANDMARKS(4)").unwrap() {
            Statement::CreatePathIndex {
                weight_col: None,
                method: PathIndexMethod::Landmarks(4),
                ..
            } => {}
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_statement("DROP PATH INDEX pi").unwrap(),
            Statement::DropPathIndex { name, if_exists: false } if name == "pi"
        ));
        // Landmark count must be a positive integer; USING is mandatory.
        assert!(parse_statement("CREATE PATH INDEX p ON e EDGE (s, d) USING LANDMARKS(0)").is_err());
        assert!(
            parse_statement("CREATE PATH INDEX p ON e EDGE (s, d) USING LANDMARKS(-1)").is_err()
        );
        assert!(parse_statement("CREATE PATH INDEX p ON e EDGE (s, d)").is_err());
        assert!(parse_statement("CREATE PATH INDEX p ON e EDGE (s, d) LANDMARKS(2)").is_err());
        assert!(parse_statement("CREATE PATH INDEX p ON e EDGE (s, d) USING nonsense").is_err());
    }

    #[test]
    fn parses_contraction_and_if_exists_forms() {
        match parse_statement(
            "CREATE PATH INDEX IF NOT EXISTS ci ON e EDGE (s, d) WEIGHT w USING CONTRACTION",
        )
        .unwrap()
        {
            Statement::CreatePathIndex { name, method, if_not_exists, weight_col, .. } => {
                assert_eq!(name, "ci");
                assert_eq!(method, PathIndexMethod::Contraction);
                assert!(if_not_exists);
                assert_eq!(weight_col.as_deref(), Some("w"));
            }
            other => panic!("{other:?}"),
        }
        // CONTRACTION takes no parameter list.
        assert!(
            parse_statement("CREATE PATH INDEX p ON e EDGE (s, d) USING CONTRACTION(2)").is_err()
        );
        assert!(matches!(
            parse_statement("DROP PATH INDEX IF EXISTS ci").unwrap(),
            Statement::DropPathIndex { name, if_exists: true } if name == "ci"
        ));
        // An index actually named `if` still parses (IF only triggers with
        // a following NOT/EXISTS keyword).
        assert!(matches!(
            parse_statement("CREATE PATH INDEX if ON e EDGE (s, d) USING CONTRACTION").unwrap(),
            Statement::CreatePathIndex { name, if_not_exists: false, .. } if name == "if"
        ));
        assert!(matches!(
            parse_statement("DROP PATH INDEX if").unwrap(),
            Statement::DropPathIndex { name, if_exists: false } if name == "if"
        ));
    }

    #[test]
    fn parses_show_path_indexes() {
        assert!(matches!(
            parse_statement("SHOW PATH INDEXES").unwrap(),
            Statement::ShowPathIndexes
        ));
        assert!(matches!(
            parse_statement("show path indexes").unwrap(),
            Statement::ShowPathIndexes
        ));
        // A bare SHOW of some other name keeps the settings form.
        assert!(matches!(
            parse_statement("SHOW threads").unwrap(),
            Statement::Show { name: Some(n) } if n == "threads"
        ));
    }

    #[test]
    fn path_stays_usable_as_identifier() {
        // PATH, WEIGHT, USING and LANDMARKS are contextual: existing
        // queries and schemas using them as names keep parsing.
        assert!(parse_statement("SELECT path FROM t").is_ok());
        assert!(parse_statement("SELECT T.path, weight FROM T").is_ok());
        assert!(parse_statement("CREATE TABLE path (weight INTEGER, using INTEGER)").is_ok());
        assert!(parse_statement("SELECT landmarks FROM using").is_ok());
        assert!(parse_statement("UPDATE path SET weight = 1").is_ok());
        assert!(parse_statement("DROP TABLE path").is_ok());
        assert!(parse_statement(
            "SELECT CHEAPEST SUM(1) AS (cost, path) WHERE 1 REACHES 2 OVER e EDGE (s, d)"
        )
        .is_ok());
    }

    #[test]
    fn precedence_and_parentheses() {
        // 1 + 2 * 3 parses as 1 + (2 * 3)
        match select("SELECT 1 + 2 * 3").items.pop().unwrap() {
            SelectItem::Expr { expr: Expr::Binary { op: BinaryOp::Add, right, .. }, .. } => {
                assert!(matches!(*right, Expr::Binary { op: BinaryOp::Mul, .. }));
            }
            other => panic!("{other:?}"),
        }
        // AND binds tighter than OR.
        match select("SELECT * WHERE a OR b AND c").where_clause.unwrap() {
            Expr::Binary { op: BinaryOp::Or, right, .. } => {
                assert!(matches!(*right, Expr::Binary { op: BinaryOp::And, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_group_order_limit() {
        let query = q("SELECT a, COUNT(*) AS n FROM t GROUP BY a HAVING COUNT(*) > 1 \
                       ORDER BY n DESC, a LIMIT 10 OFFSET 5");
        assert_eq!(query.order_by.len(), 2);
        assert!(!query.order_by[0].asc);
        assert!(query.order_by[1].asc);
        assert!(query.limit.is_some());
        assert!(query.offset.is_some());
        let s = match query.body {
            SetExpr::Select(s) => *s,
            other => panic!("{other:?}"),
        };
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
    }

    #[test]
    fn parses_union_all() {
        let query = q("SELECT 1 UNION ALL SELECT 2 UNION SELECT 3");
        // Left-associative: (1 UNION ALL 2) UNION 3.
        match query.body {
            SetExpr::Union { all: false, left, .. } => {
                assert!(matches!(*left, SetExpr::Union { all: true, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_case_cast_between_like_in() {
        let s = select(
            "SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END, \
                    CAST(a AS DOUBLE), \
                    CASE a WHEN 1 THEN 'one' END \
             FROM t \
             WHERE a BETWEEN 1 AND 5 AND name LIKE 'A%' AND b NOT IN (1, 2)",
        );
        assert_eq!(s.items.len(), 3);
        let w = s.where_clause.unwrap();
        let mut found_between = false;
        let mut found_like = false;
        let mut found_in = false;
        w.visit(&mut |e| match e {
            Expr::Between { .. } => found_between = true,
            Expr::Like { .. } => found_like = true,
            Expr::InList { negated: true, .. } => found_in = true,
            _ => {}
        });
        assert!(found_between && found_like && found_in);
    }

    #[test]
    fn parses_reaches_over_derived_table() {
        let s = select(
            "SELECT * FROM v WHERE v.a REACHES v.b OVER \
             (SELECT s, d FROM e WHERE w > 0) sub EDGE (s, d)",
        );
        match s.where_clause.unwrap() {
            Expr::Reaches(r) => {
                assert!(matches!(&r.edge_table, TableRef::Derived { alias, .. } if alias == "sub"));
                assert_eq!(r.alias.as_deref(), Some("sub"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_errors_carry_positions() {
        let err = parse_statement("SELECT FROM").unwrap_err();
        assert!(err.line >= 1 && err.column > 1);
        assert!(parse_statement("SELECT 1 WHERE a NOT REACHES b OVER t EDGE (s,d)").is_err());
        assert!(parse_statement("CHEAPEST").is_err());
    }

    #[test]
    fn parses_multiple_statements() {
        let stmts = parse_sql("CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;")
            .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn parameters_are_numbered_in_order() {
        let s = select("SELECT ? WHERE ? REACHES ? OVER t EDGE (s, d)");
        assert!(matches!(&s.items[0], SelectItem::Expr { expr: Expr::Param(0), .. }));
        match s.where_clause.unwrap() {
            Expr::Reaches(r) => {
                assert_eq!(r.source, Expr::Param(1));
                assert_eq!(r.dest, Expr::Param(2));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn date_literal() {
        let s = select("SELECT DATE '2011-01-01'");
        assert!(matches!(
            &s.items[0],
            SelectItem::Expr { expr: Expr::Literal(Literal::Date(d)), .. } if d == "2011-01-01"
        ));
    }

    #[test]
    fn explain_and_describe() {
        assert!(matches!(parse_statement("EXPLAIN SELECT 1").unwrap(), Statement::Explain(_)));
        assert!(matches!(
            parse_statement("EXPLAIN ANALYZE SELECT 1").unwrap(),
            Statement::ExplainAnalyze(_)
        ));
        assert!(matches!(
            parse_statement("DESCRIBE persons").unwrap(),
            Statement::Describe { name } if name == "persons"
        ));
    }

    #[test]
    fn parses_set_and_show() {
        match parse_statement("SET trace = off").unwrap() {
            Statement::Set { name, value } => {
                assert_eq!(name, "trace");
                assert_eq!(value, SetValue::Ident("off".to_string()));
            }
            other => panic!("{other:?}"),
        }
        match parse_statement("SET trace = on").unwrap() {
            Statement::Set { value, .. } => {
                assert_eq!(value, SetValue::Ident("on".to_string()));
            }
            other => panic!("{other:?}"),
        }
        match parse_statement("SET row_limit = 100").unwrap() {
            Statement::Set { name, value } => {
                assert_eq!(name, "row_limit");
                assert_eq!(value, SetValue::Literal(Literal::Int(100)));
            }
            other => panic!("{other:?}"),
        }
        match parse_statement("SET stats = TRUE").unwrap() {
            Statement::Set { value, .. } => {
                assert_eq!(value, SetValue::Literal(Literal::Bool(true)));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_statement("SHOW row_limit").unwrap(),
            Statement::Show { name: Some(n) } if n == "row_limit"
        ));
        assert!(matches!(parse_statement("SHOW ALL").unwrap(), Statement::Show { name: None }));
        assert!(parse_statement("SET trace").is_err());
        assert!(parse_statement("SET = 1").is_err());
        assert!(parse_statement("SHOW").is_err());
    }

    #[test]
    fn show_and_analyze_stay_usable_as_identifiers() {
        // SHOW and ANALYZE are contextual, not reserved: pre-existing
        // schemas and queries using them as names keep parsing.
        assert!(parse_statement("SELECT analyze FROM t").is_ok());
        assert!(parse_statement("SELECT a AS analyze FROM t").is_ok());
        assert!(parse_statement("CREATE TABLE t (show INTEGER, analyze INTEGER)").is_ok());
        assert!(parse_statement("SELECT show FROM analyze").is_ok());
        assert!(parse_statement("UPDATE show SET analyze = 1").is_ok());
    }

    #[test]
    fn checkpoint_statement_and_identifier_use() {
        assert!(matches!(parse_statement("CHECKPOINT").unwrap(), Statement::Checkpoint));
        assert!(matches!(parse_statement("checkpoint").unwrap(), Statement::Checkpoint));
        assert_eq!(parse_statement("CHECKPOINT").unwrap().to_string(), "CHECKPOINT");
        // Like SHOW, CHECKPOINT is contextual — it stays usable as a name.
        assert!(parse_statement("SELECT checkpoint FROM t").is_ok());
        assert!(parse_statement("CREATE TABLE checkpoint (checkpoint INTEGER)").is_ok());
        // Trailing tokens after the bare statement are rejected.
        assert!(parse_statement("CHECKPOINT now").is_err());
    }

    #[test]
    fn count_star_is_zero_arg_function() {
        let s = select("SELECT COUNT(*) FROM t");
        assert!(matches!(
            &s.items[0],
            SelectItem::Expr { expr: Expr::Function { name, args, .. }, .. }
                if name == "COUNT" && args.is_empty()
        ));
    }

    #[test]
    fn join_syntax_variants() {
        let s = select(
            "SELECT * FROM a JOIN b ON a.x = b.x LEFT OUTER JOIN c ON b.y = c.y CROSS JOIN d",
        );
        // Nested: ((a JOIN b) LEFT JOIN c) CROSS JOIN d.
        match &s.from[0] {
            TableRef::Join { kind: JoinKind::Cross, left, .. } => match left.as_ref() {
                TableRef::Join { kind: JoinKind::LeftOuter, left, .. } => {
                    assert!(matches!(left.as_ref(), TableRef::Join { kind: JoinKind::Inner, .. }));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }
}
