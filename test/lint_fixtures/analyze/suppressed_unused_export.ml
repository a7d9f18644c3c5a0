let uncalled x = Fire_unused_export.called x * 2
