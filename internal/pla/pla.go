// Package pla reads and writes two-level covers in the Berkeley espresso
// PLA format (.i/.o/.p/.type/.ilb/.ob directives, one product term per
// line). Covers are represented over a cube.WithOutputs domain: the binary
// inputs followed by one multi-valued output variable.
package pla

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"picola/internal/cover"
	"picola/internal/cube"
)

// Type describes the interpretation of the output field characters, as in
// espresso's .type directive.
type Type string

// PLA logic types. For F, a '1' asserts the output and everything else is
// unspecified (the OFF-set is the complement of the ON-set). FD adds '-'
// as don't-care, FR adds '0' as explicit OFF, FDR has all three.
const (
	TypeF   Type = "f"
	TypeFD  Type = "fd"
	TypeFR  Type = "fr"
	TypeFDR Type = "fdr"
)

// PLA is a parsed PLA file: the ON/DC/OFF covers of a multi-output
// function plus its metadata.
type PLA struct {
	NumInputs  int
	NumOutputs int
	Type       Type
	InLabels   []string
	OutLabels  []string
	D          *cube.Domain
	On         *cover.Cover
	DC         *cover.Cover
	Off        *cover.Cover
}

// New returns an empty PLA with ni binary inputs and no outputs, of type fd.
func New(ni, no int) *PLA {
	d := cube.WithOutputs(ni, no)
	return &PLA{
		NumInputs:  ni,
		NumOutputs: no,
		Type:       TypeFD,
		D:          d,
		On:         cover.New(d),
		DC:         cover.New(d),
		Off:        cover.New(d),
	}
}

// Parse reads a PLA from r. The .i and .o directives must precede the
// first product term. Unknown dot-directives are ignored, matching
// espresso's permissiveness.
func Parse(r io.Reader) (*PLA, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var p *PLA
	ni, no := -1, -1
	typ := TypeFD
	var ilb, ob []string
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = strings.TrimSpace(text[:i])
		}
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, ".") {
			fields := strings.Fields(text)
			switch fields[0] {
			case ".i":
				if len(fields) != 2 {
					return nil, fmt.Errorf("pla:%d: malformed .i", line)
				}
				v, err := strconv.Atoi(fields[1])
				if err != nil || v < 0 {
					return nil, fmt.Errorf("pla:%d: bad .i value %q", line, fields[1])
				}
				ni = v
			case ".o":
				if len(fields) != 2 {
					return nil, fmt.Errorf("pla:%d: malformed .o", line)
				}
				v, err := strconv.Atoi(fields[1])
				if err != nil || v < 1 {
					return nil, fmt.Errorf("pla:%d: bad .o value %q", line, fields[1])
				}
				no = v
			case ".type":
				if len(fields) != 2 {
					return nil, fmt.Errorf("pla:%d: malformed .type", line)
				}
				switch Type(fields[1]) {
				case TypeF, TypeFD, TypeFR, TypeFDR:
					typ = Type(fields[1])
				default:
					return nil, fmt.Errorf("pla:%d: unsupported type %q", line, fields[1])
				}
			case ".ilb":
				ilb = fields[1:]
			case ".ob":
				ob = fields[1:]
			case ".p", ".e", ".end":
				// .p is advisory; .e/.end terminate.
				if fields[0] != ".p" {
					goto done
				}
			default:
				// Ignore unknown directives.
			}
			continue
		}
		// Product term line.
		if p == nil {
			if ni < 0 || no < 0 {
				return nil, fmt.Errorf("pla:%d: product term before .i/.o", line)
			}
			p = New(ni, no)
			p.Type = typ
			p.InLabels = ilb
			p.OutLabels = ob
		}
		if err := p.addRow(text, line); err != nil {
			return nil, err
		}
	}
done:
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if p == nil {
		if ni < 0 || no < 0 {
			return nil, fmt.Errorf("pla: missing .i/.o")
		}
		p = New(ni, no)
		p.Type = typ
		p.InLabels = ilb
		p.OutLabels = ob
	}
	return p, nil
}

func (p *PLA) addRow(text string, line int) error {
	fields := strings.Fields(text)
	joined := strings.Join(fields, "")
	if len(joined) != p.NumInputs+p.NumOutputs {
		return fmt.Errorf("pla:%d: row has %d characters, want %d inputs + %d outputs",
			line, len(joined), p.NumInputs, p.NumOutputs)
	}
	in, out := joined[:p.NumInputs], joined[p.NumInputs:]
	base := p.D.NewCube()
	for v := 0; v < p.NumInputs; v++ {
		switch in[v] {
		case '0':
			p.D.Set(base, v, 0)
		case '1':
			p.D.Set(base, v, 1)
		case '-', '2':
			p.D.Set(base, v, 0)
			p.D.Set(base, v, 1)
		default:
			return fmt.Errorf("pla:%d: bad input character %q", line, in[v])
		}
	}
	ov := p.NumInputs // the output variable index
	onSet, dcSet, offSet := p.D.NewCube(), p.D.NewCube(), p.D.NewCube()
	copy(onSet, base)
	copy(dcSet, base)
	copy(offSet, base)
	var hasOn, hasDC, hasOff bool
	for j := 0; j < p.NumOutputs; j++ {
		switch out[j] {
		case '1':
			p.D.Set(onSet, ov, j)
			hasOn = true
		case '-', '~':
			if p.Type == TypeFD || p.Type == TypeFDR {
				p.D.Set(dcSet, ov, j)
				hasDC = true
			}
		case '0':
			if p.Type == TypeFR || p.Type == TypeFDR {
				p.D.Set(offSet, ov, j)
				hasOff = true
			}
		default:
			return fmt.Errorf("pla:%d: bad output character %q", line, out[j])
		}
	}
	if hasOn {
		p.On.Add(onSet)
	}
	if hasDC {
		p.DC.Add(dcSet)
	}
	if hasOff {
		p.Off.Add(offSet)
	}
	return nil
}

// Function returns the espresso Function view of the PLA. For type f and
// fd the OFF-set is left nil (computed by the minimizer as a complement);
// for fr the DC-set is nil (implicitly the unspecified remainder).
func (p *PLA) Function() (on, dc, off *cover.Cover) {
	switch p.Type {
	case TypeF:
		return p.On, nil, nil
	case TypeFD:
		return p.On, p.DC, nil
	case TypeFR:
		return p.On, nil, p.Off
	default:
		return p.On, p.DC, p.Off
	}
}

// rowString renders one cube as a PLA row; markChar is written for
// asserted outputs and bgChar for the rest ("no meaning" under the PLA's
// type: '0' for f/fd rows, '-' for fr rows).
func (p *PLA) rowString(c cube.Cube, markChar, bgChar byte) string {
	var sb strings.Builder
	for v := 0; v < p.NumInputs; v++ {
		sb.WriteString(p.D.BinLit(c, v).String())
	}
	sb.WriteByte(' ')
	for j := 0; j < p.NumOutputs; j++ {
		if p.D.Has(c, p.NumInputs, j) {
			sb.WriteByte(markChar)
		} else {
			sb.WriteByte(bgChar)
		}
	}
	return sb.String()
}

// Write emits the PLA in espresso format, rows sorted for deterministic
// output. Type fdr has no neutral output character, so it is written as
// type fr (ON and OFF rows only); this preserves the function whenever
// ON ∪ DC ∪ OFF partitions the space, which holds for every PLA this
// repository generates.
func (p *PLA) Write(w io.Writer) error {
	typ := p.Type
	if typ == TypeFDR {
		typ = TypeFR
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".i %d\n.o %d\n", p.NumInputs, p.NumOutputs)
	if len(p.InLabels) > 0 {
		fmt.Fprintf(bw, ".ilb %s\n", strings.Join(p.InLabels, " "))
	}
	if len(p.OutLabels) > 0 {
		fmt.Fprintf(bw, ".ob %s\n", strings.Join(p.OutLabels, " "))
	}
	fmt.Fprintf(bw, ".type %s\n", typ)
	nRows := p.On.Len()
	withD := typ == TypeFD
	withR := typ == TypeFR
	if withD {
		nRows += p.DC.Len()
	}
	if withR {
		nRows += p.Off.Len()
	}
	fmt.Fprintf(bw, ".p %d\n", nRows)
	// Under f/fd, '0' has no meaning, so it is the background for ON and DC
	// rows. Under fr/fdr, '-' has no meaning (fdr: it means DC, but DC rows
	// carry their own mark), so OFF rows use '-' as background and ON rows
	// must avoid '0' backgrounds meaning OFF — hence '-' there too.
	onBG, offBG := byte('0'), byte('-')
	if withR {
		onBG = '-'
	}
	emit := func(f *cover.Cover, mark, bg byte) {
		rows := make([]string, f.Len())
		for i, c := range f.Cubes {
			rows[i] = p.rowString(c, mark, bg)
		}
		sort.Strings(rows)
		for _, r := range rows {
			fmt.Fprintln(bw, r)
		}
	}
	emit(p.On, '1', onBG)
	if withD {
		emit(p.DC, '-', '0')
	}
	if withR {
		emit(p.Off, '0', offBG)
	}
	fmt.Fprintln(bw, ".e")
	return bw.Flush()
}

// String renders the PLA as a string (for logs and tests).
func (p *PLA) String() string {
	var sb strings.Builder
	_ = p.Write(&sb)
	return sb.String()
}
