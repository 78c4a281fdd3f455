package mlir

import (
	"fmt"
	"strconv"
	"strings"
)

// Parser reads MLIR textual IR. Registered operations are parsed with their
// dialect's pretty syntax; unregistered operations are accepted in MLIR's
// generic form `"dialect.op"(%operands) {attrs} : (ins) -> outs` so that
// unknown ("opaque") operations survive a round trip, as DialEgg requires.
type Parser struct {
	src string
	pos int
	reg *Registry
	// scopes is a stack of SSA name tables; region entry pushes a scope.
	scopes []map[string]*Value
}

// OpParseState carries assignment context into op parse hooks.
type OpParseState struct {
	// ResultNames are the `%name`s on the left of `=`, without the percent.
	ResultNames []string
}

// ParseError reports a syntax error with 1-based position.
type ParseError struct {
	Line, Col int
	Msg       string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("mlir: %d:%d: %s", e.Line, e.Col, e.Msg)
}

// ParseModule parses a full module: either an explicit `module { ... }` or
// a bare list of top-level operations.
func ParseModule(src string, reg *Registry) (*Module, error) {
	p := &Parser{src: src, reg: reg}
	p.pushScope()
	m := NewModule()
	p.skipWS()
	if p.acceptWord("module") {
		if err := p.expect("{"); err != nil {
			return nil, err
		}
		if err := p.parseOpsInto(m.Body()); err != nil {
			return nil, err
		}
		if err := p.expect("}"); err != nil {
			return nil, err
		}
	} else {
		if err := p.parseOpsUntilEOF(m.Body()); err != nil {
			return nil, err
		}
	}
	p.skipWS()
	if !p.eof() {
		return nil, p.errf("unexpected trailing input")
	}
	return m, nil
}

// ParseType parses the text of one type, rejecting trailing input.
func ParseType(text string) (Type, error) {
	p := &Parser{src: text}
	t, err := p.ParseType()
	if err != nil {
		return nil, err
	}
	p.skipWS()
	if !p.eof() {
		return nil, p.errf("unexpected trailing input")
	}
	return t, nil
}

// --- low-level scanning ---

func (p *Parser) eof() bool { return p.pos >= len(p.src) }

func (p *Parser) errf(format string, args ...any) error {
	line, col := 1, 1
	for i := 0; i < p.pos && i < len(p.src); i++ {
		if p.src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return &ParseError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) skipWS() {
	for !p.eof() {
		c := p.src[p.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			p.pos++
		case c == '/' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '/':
			for !p.eof() && p.src[p.pos] != '\n' {
				p.pos++
			}
		default:
			return
		}
	}
}

func isWordByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '_' || c == '.' || c == '$' || c == '-'
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

// peekWord returns the next bare word without consuming it.
func (p *Parser) peekWord() string {
	p.skipWS()
	i := p.pos
	if i >= len(p.src) || !isIdentStart(p.src[i]) {
		return ""
	}
	j := i
	for j < len(p.src) && isWordByte(p.src[j]) {
		j++
	}
	// Words never end with '.' or '-': trim so "foo," style boundaries work
	// and a trailing minus belongs to the next token.
	for j > i && (p.src[j-1] == '.' || p.src[j-1] == '-') {
		j--
	}
	return p.src[i:j]
}

// word consumes and returns the next bare word; empty if none.
func (p *Parser) word() string {
	w := p.peekWord()
	p.pos += len(w)
	return w
}

// acceptWord consumes w if it is the next word.
func (p *Parser) acceptWord(w string) bool {
	if p.peekWord() == w {
		p.pos += len(w)
		return true
	}
	return false
}

// expectWord requires the next word to be w.
func (p *Parser) expectWord(w string) error {
	if !p.acceptWord(w) {
		return p.errf("expected %q", w)
	}
	return nil
}

// accept consumes the literal punctuation lit (after whitespace).
func (p *Parser) accept(lit string) bool {
	p.skipWS()
	if strings.HasPrefix(p.src[p.pos:], lit) {
		p.pos += len(lit)
		return true
	}
	return false
}

func (p *Parser) expect(lit string) error {
	if !p.accept(lit) {
		return p.errf("expected %q", lit)
	}
	return nil
}

// peekByte returns the next non-space byte without consuming (0 at EOF).
func (p *Parser) peekByte() byte {
	p.skipWS()
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

// --- SSA names and scopes ---

func (p *Parser) pushScope() { p.scopes = append(p.scopes, make(map[string]*Value)) }
func (p *Parser) popScope()  { p.scopes = p.scopes[:len(p.scopes)-1] }

// DefineValue binds an SSA name in the current scope.
func (p *Parser) DefineValue(name string, v *Value) error {
	top := p.scopes[len(p.scopes)-1]
	if _, dup := top[name]; dup {
		return p.errf("redefinition of %%%s", name)
	}
	v.Name = name
	top[name] = v
	return nil
}

func (p *Parser) resolveValue(name string) (*Value, error) {
	for i := len(p.scopes) - 1; i >= 0; i-- {
		if v, ok := p.scopes[i][name]; ok {
			return v, nil
		}
	}
	return nil, p.errf("use of undefined value %%%s", name)
}

// percentName reads %name (letters, digits, _, #).
func (p *Parser) percentName() (string, error) {
	p.skipWS()
	if p.eof() || p.src[p.pos] != '%' {
		return "", p.errf("expected '%%'")
	}
	p.pos++
	start := p.pos
	for !p.eof() {
		c := p.src[p.pos]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '#' {
			p.pos++
		} else {
			break
		}
	}
	if p.pos == start {
		return "", p.errf("empty SSA name after '%%'")
	}
	return p.src[start:p.pos], nil
}

// ParseOperand reads %name and resolves it.
func (p *Parser) ParseOperand() (*Value, error) {
	name, err := p.percentName()
	if err != nil {
		return nil, err
	}
	return p.resolveValue(name)
}

// ParseOperandList reads a comma-separated list of operands.
func (p *Parser) ParseOperandList() ([]*Value, error) {
	var out []*Value
	for {
		v, err := p.ParseOperand()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		if !p.accept(",") {
			return out, nil
		}
	}
}

// symbolName reads @name.
func (p *Parser) symbolName() (string, error) {
	p.skipWS()
	if p.eof() || p.src[p.pos] != '@' {
		return "", p.errf("expected '@'")
	}
	p.pos++
	w := p.word()
	if w == "" {
		return "", p.errf("empty symbol name after '@'")
	}
	return w, nil
}

// stringLit reads a double-quoted string.
func (p *Parser) stringLit() (string, error) {
	p.skipWS()
	if p.eof() || p.src[p.pos] != '"' {
		return "", p.errf("expected string literal")
	}
	p.pos++
	var b strings.Builder
	for {
		if p.eof() {
			return "", p.errf("unterminated string")
		}
		c := p.src[p.pos]
		p.pos++
		switch c {
		case '"':
			return b.String(), nil
		case '\\':
			if p.eof() {
				return "", p.errf("unterminated escape")
			}
			e := p.src[p.pos]
			p.pos++
			switch e {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			default:
				return "", p.errf("unknown escape \\%c", e)
			}
		default:
			b.WriteByte(c)
		}
	}
}

// number reads an integer or float literal; isFloat reports which.
func (p *Parser) number() (i int64, f float64, isFloat bool, err error) {
	p.skipWS()
	start := p.pos
	if !p.eof() && (p.src[p.pos] == '-' || p.src[p.pos] == '+') {
		p.pos++
	}
	digits := 0
	for !p.eof() && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
		p.pos++
		digits++
	}
	if digits == 0 {
		p.pos = start
		return 0, 0, false, p.errf("expected number")
	}
	if !p.eof() && (p.src[p.pos] == '.' || p.src[p.pos] == 'e' || p.src[p.pos] == 'E') {
		if p.src[p.pos] == '.' {
			p.pos++
			for !p.eof() && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
				p.pos++
			}
		}
		if !p.eof() && (p.src[p.pos] == 'e' || p.src[p.pos] == 'E') {
			p.pos++
			if !p.eof() && (p.src[p.pos] == '-' || p.src[p.pos] == '+') {
				p.pos++
			}
			for !p.eof() && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
				p.pos++
			}
		}
		fv, perr := strconv.ParseFloat(p.src[start:p.pos], 64)
		if perr != nil {
			return 0, 0, false, p.errf("bad float literal %q", p.src[start:p.pos])
		}
		return 0, fv, true, nil
	}
	iv, perr := strconv.ParseInt(p.src[start:p.pos], 10, 64)
	if perr != nil {
		return 0, 0, false, p.errf("bad integer literal %q", p.src[start:p.pos])
	}
	return iv, 0, false, nil
}

// ParseInt reads an integer literal.
func (p *Parser) ParseInt() (int64, error) {
	i, _, isF, err := p.number()
	if err != nil {
		return 0, err
	}
	if isF {
		return 0, p.errf("expected integer, found float")
	}
	return i, nil
}

// --- types ---

// ParseType reads a type.
func (p *Parser) ParseType() (Type, error) {
	p.skipWS()
	if p.eof() {
		return nil, p.errf("expected type")
	}
	if p.src[p.pos] == '(' {
		return p.parseFunctionType()
	}
	if p.src[p.pos] == '!' {
		return p.parseOpaqueType()
	}
	w := p.word()
	switch {
	case w == "index":
		return Index, nil
	case w == "none":
		return NoneType{}, nil
	case w == "tensor":
		return p.parseTensorType()
	case w == "tuple":
		return p.parseTupleType()
	case w == "complex":
		if err := p.expect("<"); err != nil {
			return nil, err
		}
		elem, err := p.ParseType()
		if err != nil {
			return nil, err
		}
		if err := p.expect(">"); err != nil {
			return nil, err
		}
		return ComplexType{Elem: elem}, nil
	case len(w) > 1 && w[0] == 'i' && allDigits(w[1:]):
		n, _ := strconv.Atoi(w[1:])
		return IntegerType{Width: n}, nil
	case len(w) > 1 && w[0] == 'f' && allDigits(w[1:]):
		n, _ := strconv.Atoi(w[1:])
		return FloatType{Width: n}, nil
	case w == "":
		return nil, p.errf("expected type")
	default:
		return nil, p.errf("unknown type %q", w)
	}
}

func allDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return len(s) > 0
}

// parseTensorType reads the <...> part of tensor<3x4xf64>, tensor<?x3xi64>,
// or tensor<*xf32>.
func (p *Parser) parseTensorType() (Type, error) {
	if err := p.expect("<"); err != nil {
		return nil, err
	}
	p.skipWS()
	if p.accept("*") {
		if !p.eof() && p.src[p.pos] == 'x' {
			p.pos++
		}
		elem, err := p.ParseType()
		if err != nil {
			return nil, err
		}
		if err := p.expect(">"); err != nil {
			return nil, err
		}
		return UnrankedTensorType{Elem: elem}, nil
	}
	var shape []int64
	for {
		p.skipWS()
		if p.eof() {
			return nil, p.errf("unterminated tensor type")
		}
		c := p.src[p.pos]
		if c == '?' {
			p.pos++
			shape = append(shape, DynamicDim)
		} else if c >= '0' && c <= '9' {
			start := p.pos
			for !p.eof() && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
				p.pos++
			}
			d, err := strconv.ParseInt(p.src[start:p.pos], 10, 64)
			if err != nil {
				return nil, p.errf("bad dimension")
			}
			shape = append(shape, d)
		} else {
			// Element type (possibly rank 0).
			elem, err := p.ParseType()
			if err != nil {
				return nil, err
			}
			if err := p.expect(">"); err != nil {
				return nil, err
			}
			return RankedTensorType{Shape: shape, Elem: elem}, nil
		}
		// After a dimension there must be an 'x' separator.
		if p.eof() || p.src[p.pos] != 'x' {
			return nil, p.errf("expected 'x' after tensor dimension")
		}
		p.pos++
	}
}

func (p *Parser) parseTupleType() (Type, error) {
	if err := p.expect("<"); err != nil {
		return nil, err
	}
	var elems []Type
	if !p.accept(">") {
		for {
			t, err := p.ParseType()
			if err != nil {
				return nil, err
			}
			elems = append(elems, t)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(">"); err != nil {
			return nil, err
		}
	}
	return TupleType{Elems: elems}, nil
}

func (p *Parser) parseFunctionType() (Type, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var ins []Type
	if !p.accept(")") {
		for {
			t, err := p.ParseType()
			if err != nil {
				return nil, err
			}
			ins = append(ins, t)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expect("->"); err != nil {
		return nil, err
	}
	outs, err := p.ParseResultTypes()
	if err != nil {
		return nil, err
	}
	return FunctionType{Inputs: ins, Results: outs}, nil
}

// ParseResultTypes reads either a single type or a parenthesized list.
func (p *Parser) ParseResultTypes() ([]Type, error) {
	if p.peekByte() == '(' {
		p.accept("(")
		var outs []Type
		if !p.accept(")") {
			for {
				t, err := p.ParseType()
				if err != nil {
					return nil, err
				}
				outs = append(outs, t)
				if !p.accept(",") {
					break
				}
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
		}
		return outs, nil
	}
	t, err := p.ParseType()
	if err != nil {
		return nil, err
	}
	return []Type{t}, nil
}

// parseOpaqueType reads !dialect.type with optional balanced <...> body.
func (p *Parser) parseOpaqueType() (Type, error) {
	start := p.pos
	p.pos++ // '!'
	for !p.eof() && isWordByte(p.src[p.pos]) {
		p.pos++
	}
	if !p.eof() && p.src[p.pos] == '<' {
		depth := 0
		for !p.eof() {
			switch p.src[p.pos] {
			case '<':
				depth++
			case '>':
				depth--
			}
			p.pos++
			if depth == 0 {
				break
			}
		}
		if depth != 0 {
			return nil, p.errf("unbalanced '<' in opaque type")
		}
	}
	return OpaqueType{Text: p.src[start:p.pos]}, nil
}

// --- attributes ---

// ParseAttribute reads one attribute value (with optional `: type` suffix
// for numbers).
func (p *Parser) ParseAttribute() (Attribute, error) {
	p.skipWS()
	if p.eof() {
		return nil, p.errf("expected attribute")
	}
	c := p.src[p.pos]
	switch {
	case c == '"':
		s, err := p.stringLit()
		if err != nil {
			return nil, err
		}
		return StringAttr{Value: s}, nil
	case c == '@':
		sym, err := p.symbolName()
		if err != nil {
			return nil, err
		}
		return SymbolRefAttr{Symbol: sym}, nil
	case c == '[':
		p.pos++
		var elems []Attribute
		if !p.accept("]") {
			for {
				a, err := p.ParseAttribute()
				if err != nil {
					return nil, err
				}
				elems = append(elems, a)
				if !p.accept(",") {
					break
				}
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
		}
		return ArrayAttr{Elems: elems}, nil
	case c == '-' || c >= '0' && c <= '9':
		i, f, isF, err := p.number()
		if err != nil {
			return nil, err
		}
		var t Type = I64
		if isF {
			t = F64
		}
		if p.accept(":") {
			t, err = p.ParseType()
			if err != nil {
				return nil, err
			}
		}
		if isF || IsFloat(t) {
			if !isF {
				f = float64(i)
			}
			return FloatAttr{Value: f, Type: t}, nil
		}
		return IntegerAttr{Value: i, Type: t}, nil
	}
	switch w := p.peekWord(); w {
	case "true":
		p.word()
		return IntegerAttr{Value: 1, Type: I1}, nil
	case "false":
		p.word()
		return IntegerAttr{Value: 0, Type: I1}, nil
	case "unit":
		p.word()
		return UnitAttr{}, nil
	case "fastmath":
		p.word()
		if err := p.expect("<"); err != nil {
			return nil, err
		}
		flagName := p.word()
		flag, err := ParseFastMathFlag(flagName)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		if err := p.expect(">"); err != nil {
			return nil, err
		}
		return FastMathAttr{Flag: flag}, nil
	case "dense":
		p.word()
		if err := p.expect("<"); err != nil {
			return nil, err
		}
		i, f, isF, err := p.number()
		if err != nil {
			return nil, err
		}
		if err := p.expect(">"); err != nil {
			return nil, err
		}
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		t, err := p.ParseType()
		if err != nil {
			return nil, err
		}
		elem := ElemTypeOf(t)
		var splat Attribute
		if isF || IsFloat(elem) {
			if !isF {
				f = float64(i)
			}
			splat = FloatAttr{Value: f, Type: elem}
		} else {
			splat = IntegerAttr{Value: i, Type: elem}
		}
		return DenseAttr{Splat: splat, Type: t}, nil
	case "":
		return nil, p.errf("expected attribute")
	default:
		// A type used as an attribute.
		t, err := p.ParseType()
		if err != nil {
			return nil, err
		}
		return TypeAttr{Type: t}, nil
	}
}

// ParseOptionalAttrDict reads `{name = attr, ...}` when present.
func (p *Parser) ParseOptionalAttrDict() ([]NamedAttribute, error) {
	if p.peekByte() != '{' {
		return nil, nil
	}
	p.accept("{")
	var attrs []NamedAttribute
	if p.accept("}") {
		return attrs, nil
	}
	for {
		p.skipWS()
		var name string
		if !p.eof() && p.src[p.pos] == '"' {
			s, err := p.stringLit()
			if err != nil {
				return nil, err
			}
			name = s
		} else {
			name = p.word()
			if name == "" {
				return nil, p.errf("expected attribute name")
			}
		}
		var a Attribute = UnitAttr{}
		if p.accept("=") {
			var err error
			a, err = p.ParseAttribute()
			if err != nil {
				return nil, err
			}
		}
		attrs = append(attrs, NamedAttribute{Name: name, Attr: a})
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect("}"); err != nil {
		return nil, err
	}
	return attrs, nil
}

// ParseOptionalFastMath reads a trailing `fastmath<flag>` clause, returning
// the attribute to attach (nil when absent).
func (p *Parser) ParseOptionalFastMath() (Attribute, error) {
	if p.peekWord() != "fastmath" {
		return nil, nil
	}
	p.word()
	if err := p.expect("<"); err != nil {
		return nil, err
	}
	flag, err := ParseFastMathFlag(p.word())
	if err != nil {
		return nil, p.errf("%v", err)
	}
	if err := p.expect(">"); err != nil {
		return nil, err
	}
	return FastMathAttr{Flag: flag}, nil
}

// --- operations, blocks, regions ---

// parseOpsInto parses operations until the closing '}' (not consumed).
func (p *Parser) parseOpsInto(b *Block) error {
	for {
		p.skipWS()
		if p.eof() {
			return p.errf("unexpected end of input inside block")
		}
		if p.src[p.pos] == '}' {
			return nil
		}
		op, err := p.parseOperation()
		if err != nil {
			return err
		}
		b.Append(op)
	}
}

func (p *Parser) parseOpsUntilEOF(b *Block) error {
	for {
		p.skipWS()
		if p.eof() {
			return nil
		}
		op, err := p.parseOperation()
		if err != nil {
			return err
		}
		b.Append(op)
	}
}

// parseOperation reads one operation statement: optional result bindings,
// then a registered pretty form or the generic quoted form.
func (p *Parser) parseOperation() (*Operation, error) {
	st := &OpParseState{}
	p.skipWS()
	if !p.eof() && p.src[p.pos] == '%' {
		for {
			name, err := p.percentName()
			if err != nil {
				return nil, err
			}
			st.ResultNames = append(st.ResultNames, name)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
	}

	p.skipWS()
	if !p.eof() && p.src[p.pos] == '"' {
		return p.parseGenericOp(st)
	}

	name := p.word()
	if name == "" {
		return nil, p.errf("expected operation name")
	}
	def, ok := p.reg.Lookup(name)
	if !ok || def.Parse == nil {
		return nil, p.errf("unknown operation %q (unregistered ops must use the generic \"name\"(...) form)", name)
	}
	op, err := def.Parse(p, st)
	if err != nil {
		return nil, err
	}
	if err := p.bindResults(op, st); err != nil {
		return nil, err
	}
	return op, nil
}

// parseGenericOp reads `"dialect.op"(%a, %b) ({regions})? {attrs} : (t) -> t`.
func (p *Parser) parseGenericOp(st *OpParseState) (*Operation, error) {
	name, err := p.stringLit()
	if err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var operands []*Value
	if !p.accept(")") {
		operands, err = p.ParseOperandList()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	op := &Operation{Name: name, Operands: operands}
	// Optional regions: ({...}, {...}).
	if p.peekByte() == '(' {
		p.accept("(")
		for {
			region := op.AddRegion()
			if err := p.ParseRegionInto(region, nil); err != nil {
				return nil, err
			}
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	attrs, err := p.ParseOptionalAttrDict()
	if err != nil {
		return nil, err
	}
	op.Attrs = attrs
	if err := p.expect(":"); err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var inTypes []Type
	if !p.accept(")") {
		for {
			t, err := p.ParseType()
			if err != nil {
				return nil, err
			}
			inTypes = append(inTypes, t)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	if len(inTypes) != len(operands) {
		return nil, p.errf("operand count %d does not match type count %d", len(operands), len(inTypes))
	}
	for i, t := range inTypes {
		if !TypeEqual(operands[i].Typ, t) {
			return nil, p.errf("operand %d has type %s, signature says %s", i, operands[i].Typ, t)
		}
	}
	if err := p.expect("->"); err != nil {
		return nil, err
	}
	outTypes, err := p.ParseResultTypes()
	if err != nil {
		return nil, err
	}
	op.Results = make([]*Value, len(outTypes))
	for i, t := range outTypes {
		op.Results[i] = &Value{Typ: t, Def: op, ResultIdx: i}
	}
	if err := p.bindResults(op, st); err != nil {
		return nil, err
	}
	return op, nil
}

func (p *Parser) bindResults(op *Operation, st *OpParseState) error {
	if len(st.ResultNames) == 0 {
		return nil
	}
	if len(st.ResultNames) != len(op.Results) {
		return p.errf("%s produces %d results, %d names bound", op.Name, len(op.Results), len(st.ResultNames))
	}
	for i, name := range st.ResultNames {
		if err := p.DefineValue(name, op.Results[i]); err != nil {
			return err
		}
	}
	return nil
}

// BlockArgSpec declares an entry-block argument for ParseRegionInto.
type BlockArgSpec struct {
	Name string
	Type Type
}

// ParseRegionInto parses `{ ops... }` into region, creating an entry block
// with the given arguments (visible inside the region only). When the
// region body opens with an MLIR block header — `^bb0(%x: T, ...):` — the
// header's arguments are used instead of (in addition to) args.
func (p *Parser) ParseRegionInto(region *Region, args []BlockArgSpec) error {
	if err := p.expect("{"); err != nil {
		return err
	}
	block := region.AddBlock()
	p.pushScope()
	defer p.popScope()
	for _, a := range args {
		v := block.AddArg(a.Type, a.Name)
		if err := p.DefineValue(a.Name, v); err != nil {
			return err
		}
	}
	if p.peekByte() == '^' {
		if err := p.parseBlockHeader(block); err != nil {
			return err
		}
	}
	if err := p.parseOpsInto(block); err != nil {
		return err
	}
	return p.expect("}")
}

// parseBlockHeader reads `^name(%a: T, ...):`, adding the arguments to
// block and binding their names.
func (p *Parser) parseBlockHeader(block *Block) error {
	p.skipWS()
	if p.eof() || p.src[p.pos] != '^' {
		return p.errf("expected block label")
	}
	p.pos++
	if w := p.word(); w == "" {
		return p.errf("expected block name after '^'")
	}
	if p.accept("(") && !p.accept(")") {
		for {
			name, err := p.percentName()
			if err != nil {
				return err
			}
			if err := p.expect(":"); err != nil {
				return err
			}
			t, err := p.ParseType()
			if err != nil {
				return err
			}
			v := block.AddArg(t, name)
			if err := p.DefineValue(name, v); err != nil {
				return err
			}
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return err
		}
	}
	return p.expect(":")
}

// ParseKeyword requires the next word to be kw (exported for op hooks).
func (p *Parser) ParseKeyword(kw string) error { return p.expectWord(kw) }

// AcceptKeyword consumes kw if present.
func (p *Parser) AcceptKeyword(kw string) bool { return p.acceptWord(kw) }

// ParseWord reads any bare word.
func (p *Parser) ParseWord() (string, error) {
	w := p.word()
	if w == "" {
		return "", p.errf("expected identifier")
	}
	return w, nil
}

// Expect requires literal punctuation (exported for op hooks).
func (p *Parser) Expect(lit string) error { return p.expect(lit) }

// Accept consumes literal punctuation if present.
func (p *Parser) Accept(lit string) bool { return p.accept(lit) }

// Errf builds a positioned error (for op hooks).
func (p *Parser) Errf(format string, args ...any) error { return p.errf(format, args...) }

// ParseSymbolName reads @name (for op hooks).
func (p *Parser) ParseSymbolName() (string, error) { return p.symbolName() }

// ParsePercentName reads a %name without resolving it (for op hooks that
// define new values, like loop induction variables).
func (p *Parser) ParsePercentName() (string, error) { return p.percentName() }

// PeekByteIsPercent reports whether the next non-space byte starts an SSA
// name.
func (p *Parser) PeekByteIsPercent() bool { return p.peekByte() == '%' }
