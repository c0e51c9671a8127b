int f ( ) { int x ; x = x + g ( ) ; }
